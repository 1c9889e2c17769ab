package main

import "time"

// budgetTolerance is how far the per-layer budget may miss the traced
// end-to-end mean before the traced pass fails.
const budgetTolerance = 0.05

// kvLayerMetrics are the names rt-page reports as zero: it crosses no
// kv layer, but every run emits every declared name.
var kvLayerMetrics = []struct{ name, unit string }{
	{"kv.server_us", "us"}, {"kv.store_get_us", "us"}, {"kv.store_set_us", "us"},
	{"kv.hit_frac", "frac"}, {"kv.block_bytes_per_value_byte", "B/B"},
}

func opSpans(w *window) time.Duration { return w.tr.opT[subRead] + w.tr.opT[subWrite] }
func rtInOps(w *window) time.Duration { return w.tr.rtInOp[subRead] + w.tr.rtInOp[subWrite] }
func windowOps(w *window) int         { return w.ops }

// layerMetrics fills the per-layer metrics from the traced pass. Layer
// times are ref-weighted means (normMean) turned back into microseconds
// at the run's median reference round trip, so they add up.
//
// The budget of one op, all from traced windows unless marked (D):
//
//	e2e     = (window wall − Sync time) / ops
//	loadgen = e2e − op span
//	kv      = server + store, server = op span − store span (D),
//	          store = store span (D) − rt time inside it (D)
//	cluster = Σ RPCs inside the op's runtime calls × (probe wire + residence)
//	core    = rt time inside the op − cluster
//
// Everything but the two (D) terms telescopes, so the sum equals e2e
// exactly when the direct sub-pass spends the same time in the runtime
// as the socket sub-pass does; the gap is reported and bounded.
func (p *pass) layerMetrics(m map[string]metric, d delta, pr probe) {
	ws := p.windows
	refS := medianRef(ws)
	us := func(rel float64) float64 { return rel * refS * 1e6 }
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// loadgen: the harness's own view in raw units, from the plain
	// windows; the quantiles the gate cannot carry live here.
	rs, wr, sy := sortedCopy(p.readLat), sortedCopy(p.writeLat), sortedCopy(p.syncLat)
	plainWall := relSum(ws, modePlain, func(w *window) time.Duration { return w.wall })
	set("loadgen.ref_rtt_us", refS*1e6, "us")
	set("loadgen.ops_per_s", countSum(ws, modePlain, windowOps)/(plainWall*refS), "1/s")
	set("loadgen.read_mean_us", mean(rs), "us")
	set("loadgen.read_p50_us", quantileSorted(rs, 0.50), "us")
	set("loadgen.read_p99_us", quantileSorted(rs, 0.99), "us")
	set("loadgen.read_p999_us", quantileSorted(rs, 0.999), "us")
	set("loadgen.write_mean_us", mean(wr), "us")
	set("loadgen.write_p50_us", quantileSorted(wr, 0.50), "us")
	set("loadgen.write_p99_us", quantileSorted(wr, 0.99), "us")
	set("loadgen.sync_p99_us", quantileSorted(sy, 0.99), "us")
	set("loadgen.disturbed_frac", disturbedFrac(ws), "frac")
	callTime := func(w *window) time.Duration { return w.readT + w.writeT }
	set("loadgen.trace_overhead_frac",
		normMean(ws, modeTraced, callTime, windowOps)/normMean(ws, modePlain, callTime, windowOps)-1, "frac")

	ops := countSum(ws, modeTraced, windowOps)
	e2e := relSum(ws, modeTraced, func(w *window) time.Duration { return w.wall - w.syncT }) / ops
	opSpan := relSum(ws, modeTraced, opSpans) / ops
	rtTime := relSum(ws, modeTraced, rtInOps) / ops
	self := e2e - opSpan
	set("loadgen.e2e_us", us(e2e), "us")

	var kvServer, kvStore float64
	if p.cfg.wl.pages == 0 {
		directOps := countSum(ws, modeDirect, windowOps)
		storeSpan := relSum(ws, modeDirect, opSpans) / directOps
		kvServer = opSpan - storeSpan
		kvStore = storeSpan - relSum(ws, modeDirect, rtInOps)/directOps
		storeSelf := func(sub int) float64 {
			return normMean(ws, modeDirect,
				func(w *window) time.Duration { return w.tr.opT[sub] - w.tr.rtInOp[sub] },
				func(w *window) int { return w.tr.opN[sub] })
		}
		c := d.compute.Counters
		set("kv.server_us", us(kvServer), "us")
		set("kv.store_get_us", us(storeSelf(subRead)), "us")
		set("kv.store_set_us", us(storeSelf(subWrite)), "us")
		set("kv.hit_frac", ratio(c["kv.hits"], c["kv.hits"]+c["kv.misses"]), "frac")
		set("kv.block_bytes_per_value_byte", p.blockBytesPerValueByte(), "B/B")
	} else {
		for _, km := range kvLayerMetrics {
			set(km.name, 0, km.unit)
		}
		// With no kv layer the op span is the rt span plus the recorder's
		// own cost, which is the harness's.
		self = e2e - rtTime
	}
	set("loadgen.self_us", us(self), "us")

	// clusterRel is the total the runtime calls of kind sub spent on the
	// rack, in reference round trips: each RPC's residence as stamped,
	// plus the probe's wire time for its class.
	clusterRel := func(sub int) float64 {
		var total float64
		for class := 0; class < nClass; class++ {
			class := class
			total += relSum(ws, modeTraced, func(w *window) time.Duration { return w.tr.resT[sub][class] })
			total += countSum(ws, modeTraced, func(w *window) int { return w.tr.resN[sub][class] }) * pr.wireRel[class]
		}
		return total
	}
	coreSelf := func(sub int) float64 {
		calls := countSum(ws, modeTraced, func(w *window) int { return w.tr.rtN[sub] })
		if calls == 0 {
			return 0
		}
		return (relSum(ws, modeTraced, func(w *window) time.Duration { return w.tr.rtT[sub] }) - clusterRel(sub)) / calls
	}
	set("core.read_us", us(coreSelf(subRead)), "us")
	set("core.write_us", us(coreSelf(subWrite)), "us")
	set("core.sync_us", us(coreSelf(subSync)), "us")

	// core + cluster per op is, by the definition above, the rt time
	// inside the op.
	sum := self + kvServer + kvStore + rtTime
	set("loadgen.budget_sum_us", us(sum), "us")
	set("loadgen.budget_gap_frac", sum/e2e-1, "frac")

	c, mem := d.compute.Counters, d.mem.Counters
	writes := 0
	for i := range ws {
		writes += ws[i].writes
	}
	set("core.fetches_per_op", d.fetchesPerOp(), "1/op")
	set("core.fmem_hit_frac", ratio(c["core.fpga.fmem_hits"], c["core.fpga.line_fills"]), "frac")
	set("core.evictions_per_op", d.perOp(c["core.evictions"]), "1/op")
	set("core.dirty_evictions_per_op", d.perOp(c["core.dirty_evictions"]), "1/op")
	set("core.flushes_per_kop", 1000*d.perOp(c["core.evict.flushes"]), "1/kop")
	set("core.lines_shipped_per_write", ratio(c["core.evict.lines_shipped"], uint64(writes)), "1/op")
	set("core.log_payload_frac", ratio(c["core.evict.payload_bytes"], c["core.evict.wire_bytes"]), "frac")

	// Residence by class over every traced window, whatever called.
	var resT [nClass]time.Duration
	var resN [nClass]int
	for i := range ws {
		for sub := range ws[i].tr.resN {
			for class := 0; class < nClass; class++ {
				resT[class] += ws[i].tr.resT[sub][class]
				resN[class] += ws[i].tr.resN[sub][class]
			}
		}
	}
	var rpcs, wire float64
	for class, n := range resN {
		rpcs += float64(n)
		wire += float64(n) * pr.wireRel[class]
	}
	perRPC := func(t time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return t.Seconds() * 1e6 / float64(n)
	}
	set("cluster.wire_us", us(wire/rpcs), "us")
	set("cluster.memnode_read_us", perRPC(resT[classRead], resN[classRead]), "us")
	set("cluster.memnode_writelog_us", perRPC(resT[classWriteLog], resN[classWriteLog]), "us")
	set("cluster.rpcs_per_op.read", d.perOp(mem["cluster.memnode.served.read"]), "1/op")
	set("cluster.rpcs_per_op.readpages", d.perOp(mem["cluster.memnode.served.read-pages"]), "1/op")
	set("cluster.rpcs_per_op.writelog", d.perOp(mem["cluster.memnode.served.write-log"]), "1/op")
	set("cluster.rpcs_per_op.ctrl", d.perOp(sumPrefix(d.ctrl, "cluster.controller.served.")), "1/op")
	set("cluster.rx_bytes_per_op", d.perOp(sumPrefix(d.compute, "cluster.rpc.rx_bytes.")), "B/op")
	set("cluster.tx_bytes_per_op", d.perOp(sumPrefix(d.compute, "cluster.rpc.tx_bytes.")), "B/op")
	set("cluster.payload_copy_bytes_per_op", d.perOp(c["cluster.rpc.payload_copies"]+mem["cluster.memnode.payload_copies"]), "B/op")
	set("cluster.retries", float64(c["cluster.rpc.retries"]), "count")
	set("cluster.dials", float64(c["cluster.rpc.dials"]), "count")

	set("go.gc_cycles", float64(d.gcCycles), "count")
	set("go.gc_pause_us", float64(d.gcPauseNs)/1e3, "us")
}

// blockBytesPerValueByte is the store's space overhead: heap block
// bytes held by the index over the value bytes they carry.
func (p *pass) blockBytesPerValueByte() float64 {
	var valueBytes uint64
	for _, n := range p.d.(*kvDriver).lastLen {
		valueBytes += uint64(n)
	}
	return ratio(p.c.store.Stats().LiveBytes, valueBytes)
}
