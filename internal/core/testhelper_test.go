package core

import (
	"math"

	"kona/internal/simclock"
)

// simDur and simDurT shorten simclock.Duration in tests.
type simDurT = simclock.Duration

func simDur(n int64) simclock.Duration { return simclock.Duration(n) }

// coldCache empties FMem without writing anything back, for tests that
// need the next access to come from remote memory. Sync does not do this:
// it flushes dirty pages and keeps clean ones. Call it after a Sync, or
// unflushed writes are lost.
func coldCache(k *Kona) { k.fpga.DropRange(0, math.MaxUint64) }
