package main

import (
	"fmt"
	"runtime"
)

// build times one world build (the simulator's set-up) after a full GC,
// so the previous world is gone and the timing starts from a quiet heap.
func (r *run) build(factor float64) (*world, float64, error) {
	runtime.GC()
	t0 := nanotime()
	wd, err := buildWorld(r.w, r.seed, factor)
	t1 := nanotime()
	if err != nil {
		return nil, 0, err
	}
	r.heap.sample()
	return wd, float64(t1-t0) / 1e9, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// latStride spreads the broker-latency stamps over the population: about
// a hundred per round, and never fewer than one in four LUs.
func latStride(nodes int) uint64 { return uint64(max(4, nodes/128)) }

// e2eSim measures a simulator workload with tracing off.
func (r *run) e2eSim() error {
	w := r.w
	var (
		c      = newChunks()
		setups []float64
		q      quality
		nodes  int
	)
	if w.horizon > 0 {
		// The first horizon warms the process up; every later one is
		// timed and is one chunk. Each horizon is a fresh world from the
		// same seed, so all must agree exactly.
		var first quality
		var steadyNS int64
		differ := 0
		for h := 0; h < 2 || steadyNS < r.budgetNS(); h++ {
			wd, setup, err := r.build(1.0)
			if err != nil {
				return err
			}
			setups = append(setups, setup)
			nodes = wd.nodes
			timed := h > 0
			if timed {
				wd.sink.lat, wd.sink.latStride = c.lat, latStride(nodes)
			}
			c.begin()
			t0 := nanotime()
			for n := 1; n <= w.horizon; n++ {
				s := nanotime()
				wd.sink.tickStart = s
				if err := wd.tick(n); err != nil {
					r.ops(int64(n), 1)
					return err
				}
				if timed {
					c.ticks.add(ms(nanotime() - s))
				}
				r.heap.sample()
			}
			t1 := nanotime()
			wd.close()
			r.ops(int64(w.horizon), 0)
			hq := wd.sink.quality()
			if h == 0 {
				first = hq
			} else if hq != first {
				differ++
			}
			if timed {
				steadyNS += t1 - t0
				c.end(t1-t0, int64(nodes*w.horizon), int64(wd.sink.transmitted))
			}
		}
		r.check("repeated horizons agree", differ == 0, "%d of %d horizons differ from the first", differ, len(setups)-1)
		q = first
		if err := r.fig4Band(q); err != nil {
			return err
		}
	} else {
		var wd *world
		for i := 0; i < w.setups; i++ {
			if wd != nil {
				wd.close()
				wd = nil
			}
			var (
				setup float64
				err   error
			)
			if wd, setup, err = r.build(1.0); err != nil {
				return err
			}
			setups = append(setups, setup)
		}
		defer wd.close()
		nodes = wd.nodes
		// The steady window is cut into timeChunks slices of time.
		chunkNS := r.budgetNS() / timeChunks
		var start, c0 int64
		var n0 int
		var tx0 uint64
		for n := 1; ; n++ {
			if n == w.warmup+1 {
				start, tx0 = nanotime(), wd.sink.transmitted
				c0, n0 = start, n
				wd.sink.lat, wd.sink.latStride = c.lat, latStride(nodes)
				c.begin()
			}
			s := nanotime()
			wd.sink.tickStart = s
			if err := wd.tick(n); err != nil {
				r.ops(int64(n), 1)
				return err
			}
			e := nanotime()
			r.heap.sample()
			if n == w.quality {
				q = wd.sink.quality()
			}
			if n <= w.warmup {
				continue
			}
			c.ticks.add(ms(e - s))
			if e-c0 < chunkNS {
				continue
			}
			c.end(e-c0, int64(nodes*(n-n0+1)), int64(wd.sink.transmitted-tx0))
			c.begin()
			c0, n0, tx0 = nanotime(), n+1, wd.sink.transmitted
			if n >= w.quality && e-start >= r.budgetNS() {
				r.ops(int64(n), 0)
				break
			}
		}
	}
	r.qualityChecks(q)

	r.set("setup_s", median(setups))
	c.set(r)
	r.set("peak_heap_mb", r.heap.mb())
	r.set("lu_reduction_pct", q.reductionPct())
	r.set("rmse_with_le_m", q.RMSEWithLE)
	r.set("wire_bytes_per_lu", float64(luFrameBytes()))
	r.details["nodes"] = nodes
	r.details["setup_samples_s"] = setups
	r.details["quality"] = q
	r.details["lu_latency_from"] = "round start to both brokers holding the LU"
	r.details["wire_bytes_from"] = "size of the LU frame SendInteraction would write; this workload opens no socket"
	return nil
}

// timeChunks is how many slices of time the steady window of a workload
// without horizons is cut into.
const timeChunks = 10

func (r *run) qualityChecks(q quality) {
	r.check("quality figures usable", q.sane(), "offered %d transmitted %d reduction %.4f%% rmse %.4f m",
		q.Offered, q.Transmitted, q.reductionPct(), q.RMSEWithLE)
}

// fig4Band checks paper-140's reduction against the shape TestFig4
// enforces: the ADF's reduction grows with the DTH factor, so 1.0av lies
// strictly between 0.75av and 1.25av, all inside (0, 100).
func (r *run) fig4Band(at100 quality) error {
	red := map[float64]float64{}
	for _, f := range []float64{0.75, 1.25} {
		wd, _, err := r.build(f)
		if err != nil {
			return err
		}
		for n := 1; n <= r.w.horizon; n++ {
			if err := wd.tick(n); err != nil {
				return err
			}
		}
		wd.close()
		red[f] = wd.sink.quality().reductionPct()
	}
	mid := at100.reductionPct()
	r.check("reduction inside the Figure-4 band", 0 < red[0.75] && red[0.75] < mid && mid < red[1.25] && red[1.25] < 100,
		"0.75av %.2f%% < 1.00av %.2f%% < 1.25av %.2f%%", red[0.75], mid, red[1.25])
	return nil
}

// traced collects what a traced run of any workload measured, for the
// per-layer metrics.
type traced struct {
	tr *tracer
	// Quality of the untraced reference run and of the traced run over
	// the same tick prefix.
	qRef, qTr quality
	// want and wantClusters are the traced run's per-tick counts and
	// cluster count the replay must reproduce.
	want         []tickCount
	wantClusters int
	// steadyAllocs is the untraced engine's allocations per steady tick.
	steadyAllocs float64
	// overhead holds traced/untraced round-time ratios of adjacent blocks.
	overhead []float64
	// Offered and transmitted LUs in traced rounds.
	offered, transmitted uint64
	nodes                int
	hla                  hlaStats
}

// hlaStats is the RTI path's per-layer figures, and the sender's and
// receiver's spans.
type hlaStats struct {
	sendNS, grantWaitMS, recvAdvanceMS, allocsPerLU, syscallsPerLU float64
	sent, delivered                                                int64
	spans                                                          [2]*tracer
}

// tracedSim is the traced run of a simulator workload: an untraced
// reference, a traced run whose first ticks must reproduce it exactly
// and which then alternates untraced and traced blocks to measure
// tracing overhead, and the layer replay.
func (r *run) tracedSim() error {
	w := r.w
	t := &traced{tr: newTracer(), wantClusters: -1}
	am := &allocMeter{}
	recordTo := w.warmup + w.replay
	tick := func(wd *world, n int, on bool) (int64, error) {
		o0, x0 := wd.sink.offered, wd.sink.transmitted
		s := nanotime()
		err := wd.tick(n)
		e := nanotime()
		if on {
			t.tr.add(lTick, s, e)
			t.tr.add(lRound, s, e)
			t.tr.endRound()
			t.offered += wd.sink.offered - o0
			t.transmitted += wd.sink.transmitted - x0
		}
		return e - s, err
	}
	if w.horizon > 0 {
		// Even horizons untraced, odd ones traced; horizon 0 is the
		// reference, horizon 1 records what the replay must reproduce.
		// Pairs after the first give the overhead.
		differ := 0
		var prevNS int64
		start := nanotime()
		for h := 0; h < 4 || h%2 == 1 || nanotime()-start < r.tracedNS(); h++ {
			wd, _, err := r.build(1.0)
			if err != nil {
				return err
			}
			on := h%2 == 1
			wd.setTracer(t.tr)
			wd.trace(on)
			var m0 uint64
			var blockNS int64
			for n := 1; n <= w.horizon; n++ {
				if h == 0 && n == w.warmup+1 {
					m0 = am.mallocs()
				}
				ns, err := tick(wd, n, on)
				if err != nil {
					return err
				}
				blockNS += ns
				if h == 1 && n <= recordTo {
					t.want = append(t.want, tickCount{wd.sink.offered, wd.sink.transmitted})
				}
			}
			wd.close()
			r.ops(int64(w.horizon), 0)
			switch q := wd.sink.quality(); h {
			case 0:
				t.steadyAllocs = float64(am.mallocs()-m0) / float64(w.horizon-w.warmup)
				t.qRef = q
			case 1:
				t.qTr = q
				t.wantClusters = wd.adf.ClusterCount()
			default:
				if q != t.qRef {
					differ++
				}
			}
			if on && h > 1 {
				t.overhead = append(t.overhead, float64(blockNS)/float64(prevNS))
			}
			prevNS = blockNS
			t.nodes = wd.nodes
		}
		r.check("repeated horizons agree", differ == 0, "%d horizons differ from the reference", differ)
		if err := r.fig4Band(t.qRef); err != nil {
			return err
		}
	} else {
		// Untraced reference: the quality prefix, and the steady ticks the
		// replay covers for the allocation count.
		wd, _, err := r.build(1.0)
		if err != nil {
			return err
		}
		var m0 uint64
		for n := 1; n <= max(w.quality, recordTo); n++ {
			if n == w.warmup+1 {
				m0 = am.mallocs()
			}
			if _, err := tick(wd, n, false); err != nil {
				return err
			}
			if n == w.quality {
				t.qRef = wd.sink.quality()
			}
		}
		t.steadyAllocs = float64(am.mallocs()-m0) / float64(w.replay)
		wd.close()
		r.ops(int64(max(w.quality, recordTo)), 0)

		wd, _, err = r.build(1.0)
		if err != nil {
			return err
		}
		defer wd.close()
		t.nodes = wd.nodes
		wd.setTracer(t.tr)
		wd.trace(true)
		n := 0
		for n < max(w.quality, recordTo) {
			n++
			if _, err := tick(wd, n, true); err != nil {
				return err
			}
			if n <= recordTo {
				t.want = append(t.want, tickCount{wd.sink.offered, wd.sink.transmitted})
			}
			if n == recordTo {
				t.wantClusters = wd.adf.ClusterCount()
			}
			if n == w.quality {
				t.qTr = wd.sink.quality()
			}
		}
		var prevNS int64
		start := nanotime()
		for b := 0; b < 2 || b%2 == 1 || nanotime()-start < r.tracedNS(); b++ {
			on := b%2 == 1
			wd.trace(on)
			var blockNS int64
			for k := 0; k < w.block; k++ {
				n++
				ns, err := tick(wd, n, on)
				if err != nil {
					return err
				}
				blockNS += ns
			}
			if on {
				t.overhead = append(t.overhead, float64(blockNS)/float64(prevNS))
			}
			prevNS = blockNS
		}
		r.ops(int64(n), 0)
	}
	rs, err := replay(w, r.seed, t.want, t.wantClusters)
	if err != nil {
		return err
	}
	if t.hla, err = r.replayFed(rs.lus, t.nodes); err != nil {
		return err
	}
	return r.layerMetrics(t, rs)
}

// replayFed sends a simulator workload's recorded LUs through the RTI, so
// its wire and RTI layers are measured on its own LU stream: one
// untraced pass for allocations and syscalls, one traced for spans.
func (r *run) replayFed(steps [][]luRec, idSpan int) (hlaStats, error) {
	var hs hlaStats
	if len(steps) == 0 {
		return hs, fmt.Errorf("the replay recorded no transmitted LUs")
	}
	f, err := startFederation(newLEBroker(idSpan))
	if err != nil {
		return hs, err
	}
	f.recvAmb.fault = r.fault
	am := &allocMeter{}
	trS, trR := newTracer(), newTracer()
	var mismatched int64
	for pass := 0; pass < 2; pass++ {
		on := pass == 1
		ps, err := f.phase(steps, on, trS, trR, am)
		if err != nil {
			_ = f.close()
			return hs, err
		}
		mismatched += ps.mismatched + ps.bad + max(0, ps.sent-ps.delivered)
		hs.sent += ps.sent
		hs.delivered += ps.delivered
		if !on {
			hs.allocsPerLU = ratio(float64(ps.mallocs), float64(ps.sent))
			hs.syscallsPerLU = ratio(float64(ps.io.syscw), float64(ps.delivered))
		}
	}
	if err := f.close(); err != nil {
		return hs, err
	}
	r.ops(hs.sent, mismatched)
	r.check("replayed LUs delivered exactly once, bit-identical, in order", mismatched == 0,
		"%d of %d LUs missing, extra, altered or out of order", mismatched, hs.sent)
	hs.sendNS = trS.perCall(lSend)
	hs.grantWaitMS = trS.perCall(lSenderTAR) / 1e6
	hs.recvAdvanceMS = trR.perCall(lRecvTAR) / 1e6
	hs.spans = [2]*tracer{trS, trR}
	return hs, nil
}

// layerMetrics turns a traced run and its replay into the per-layer
// metrics, and writes the spans out.
func (r *run) layerMetrics(t *traced, rs *replayStats) error {
	tr := t.tr
	r.check("traced run matches the untraced run", t.qTr == t.qRef,
		"untraced %+v, traced %+v", t.qRef, t.qTr)

	r.set("mobility.advance.ns_per_node", rs.advance.nsPer())
	r.set("mobility.advance.allocs_per_node", rs.advance.allocsPer())
	r.set("gateway.collect.ns_per_sample", rs.collect.nsPer())
	r.set("gateway.collect.allocs_per_sample", rs.collect.allocsPer())
	r.set("gateway.delivered_ratio", ratio(float64(rs.delivered), float64(rs.collected)))
	r.set("core.offer.ns_per_lu", tr.perCall(lOffer))
	r.set("core.offer.p99_us", tr.offerNS.dist().P99/1e3)
	r.set("core.offer.replay_ns_per_lu", rs.offer.nsPer())
	r.set("core.offer.allocs_per_lu", rs.offer.allocsPer())
	r.set("core.transmit_ratio", ratio(float64(t.transmitted), float64(t.offered)))
	r.set("core.classify.ns_per_obs", rs.classify.nsPer())
	r.set("core.classify.allocs_per_obs", rs.classify.allocsPer())
	r.set("cluster.assign.ns_per_op", rs.assign.nsPer())
	r.set("cluster.assign.allocs_per_op", rs.assign.allocsPer())
	r.set("cluster.rebuild.ms_per_op", rs.rebuild.nsPer()/1e6)
	r.set("cluster.count", float64(rs.clusters))
	r.set("broker.nole.ns_per_step", rs.nole.nsPer())
	r.set("broker.nole.allocs_per_step", rs.nole.allocsPer())
	r.set("broker.withle.ns_per_step", rs.withle.nsPer())
	r.set("broker.withle.allocs_per_step", rs.withle.allocsPer())
	r.set("broker.estimated_ratio", ratio(float64(rs.estimated), float64(rs.known)))
	r.set("engine.tick.self_ns_per_node", ratio(tr.selfNS(lTick), float64(tr.rounds)*float64(t.nodes)))
	r.set("engine.observers.ns_per_call", tr.perCall(lObserve))
	r.set("engine.forget.ns_per_event", rs.forget.nsPer())
	r.set("engine.forget.allocs_per_event", rs.forget.allocsPer())
	r.set("engine.churn_events_per_tick", ratio(float64(tr.tot[lForget].calls), float64(tr.rounds)))
	r.set("engine.steady_allocs_per_tick", t.steadyAllocs)
	r.set("wire.encode.ns_per_lu", rs.encode.nsPer())
	r.set("wire.encode.allocs_per_lu", rs.encode.allocsPer())
	r.set("wire.decode.ns_per_lu", rs.decode.nsPer())
	r.set("wire.decode.allocs_per_lu", rs.decode.allocsPer())
	r.set("wire.write_syscalls_per_lu", t.hla.syscallsPerLU)
	r.set("hla.send.ns_per_lu", t.hla.sendNS)
	r.set("hla.sender_grant_wait_ms", t.hla.grantWaitMS)
	r.set("hla.receiver_advance_ms", t.hla.recvAdvanceMS)
	r.set("hla.allocs_per_lu", t.hla.allocsPerLU)

	// Coverage: the named layers' span self time, plus the replayed cost
	// of the layers inside the engine's own self time, over the traced
	// rounds' wall time.
	covered := tr.selfNS(lOffer) + tr.selfNS(lForget) + tr.selfNS(lObserve) + tr.selfNS(lSend) + tr.selfNS(lSenderTAR) +
		rs.engineInternalNS()*float64(tr.rounds)
	r.set("trace.coverage_pct", 100*ratio(covered, float64(tr.tot[lRound].ns)))
	r.set("trace.overhead_pct", 100*(median(t.overhead)-1))

	layers := map[string]any{}
	for l := lTick; l < nLayers; l++ {
		if tr.tot[l].calls == 0 {
			continue
		}
		layers[layerNames[l]] = map[string]float64{
			"calls_per_round":   ratio(float64(tr.tot[l].calls), float64(tr.rounds)),
			"ns_per_call":       tr.perCall(l),
			"self_ms_per_round": ratio(tr.selfNS(l), float64(tr.rounds)) / 1e6,
		}
	}
	replayed := map[string]any{}
	for name, s := range map[string]layerStat{
		"mobility.advance": rs.advance, "gateway.collect": rs.collect, "core.offer": rs.offer,
		"core.classify": rs.classify, "cluster.assign": rs.assign, "cluster.rebuild": rs.rebuild,
		"broker.nole": rs.nole, "broker.withle": rs.withle, "engine.forget": rs.forget,
		"wire.encode": rs.encode, "wire.decode": rs.decode,
	} {
		replayed[name] = map[string]float64{"ns_per_op": s.nsPer(), "allocs_per_op": s.allocsPer(), "ops": float64(s.ops)}
	}
	r.details["span_layers"] = layers
	r.details["replay_layers"] = replayed
	r.details["traced_rounds"] = tr.rounds
	r.details["round_ms"] = ratio(float64(tr.tot[lRound].ns), float64(tr.rounds)) / 1e6
	r.details["engine_internal_replayed_ms_per_round"] = rs.engineInternalNS() / 1e6
	r.details["overhead_pairs"] = len(t.overhead)
	r.details["rti_lus"] = map[string]int64{"sent": t.hla.sent, "delivered": t.hla.delivered}
	// The trace file holds the RTI replay's spans too, per-LU ones
	// included; every figure above is taken before they join.
	for _, o := range t.hla.spans {
		tr.merge(o)
	}
	if err := tr.writeChrome(r.tracePath()); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.details["trace_file"] = r.tracePath()
	return nil
}
