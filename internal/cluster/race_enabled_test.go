//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool drops a share of what it is handed, so the wire path's
// zero-allocation guard would measure the detector, not the path.
const raceEnabled = true
