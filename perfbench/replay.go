package main

import (
	"fmt"
	"runtime"

	"github.com/mobilegrid/adf/internal/cluster"
	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/hla"
	"github.com/mobilegrid/adf/internal/wire"
)

// The replay times the layers the engine calls on concrete types, which
// the traced run cannot wrap: node advance, gateway collect, the ADF's
// classifier and cluster manager, both brokers, the departure path and
// the wire codec. It rebuilds the run's components from the same seed
// and drives them one layer at a time, in the engine's node order, so
// every layer sees exactly the inputs it saw in the traced run — which
// the replay checks tick by tick against the counts that run recorded.

// layerStat accumulates one layer's replayed cost.
type layerStat struct {
	ns, allocs, ops int64
}

func (l layerStat) nsPer() float64 { return ratio(float64(l.ns), float64(l.ops)) }

func (l layerStat) allocsPer() float64 { return ratio(float64(l.allocs), float64(l.ops)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tickCount is the cumulative offered and transmitted LU count after a
// tick of a run.
type tickCount struct {
	offered, transmitted uint64
}

type replayStats struct {
	advance, collect, offer, classify, assign, rebuild layerStat
	nole, withle, forget, encode, decode               layerStat
	// collected and delivered count gateway inputs and forwards.
	collected, delivered int64
	// estimated counts with-LE broker steps served by the estimator,
	// over known counts steps where the broker held a belief.
	estimated, known int64
	steadyTicks      int64
	clusters         int
	// lus holds transmitted LUs of the first steady ticks, for the RTI
	// replay of the simulator workloads.
	lus [][]luRec
}

// engineInternalNS is the replayed cost per tick of the layers the
// engine runs inside Pipeline.Tick without an interface in between.
func (s *replayStats) engineInternalNS() float64 {
	if s.steadyTicks == 0 {
		return 0
	}
	t := float64(s.steadyTicks)
	return float64(s.advance.ns+s.collect.ns+s.nole.ns+s.withle.ns) / t
}

// allocMeter reads the exact heap allocation count. It stops the world,
// so it is only read between timed blocks, never inside one.
type allocMeter struct {
	ms runtime.MemStats
}

func (a *allocMeter) mallocs() uint64 {
	runtime.ReadMemStats(&a.ms)
	return a.ms.Mallocs
}

// timed runs f as one timed block of ops operations on st.
func (a *allocMeter) timed(st *layerStat, ops int, f func()) {
	m0 := a.mallocs()
	t0 := nanotime()
	f()
	t1 := nanotime()
	st.ns += t1 - t0
	st.allocs += int64(a.mallocs() - m0)
	st.ops += int64(ops)
}

const (
	maxReplayLUs        = 4000
	maxReplayLUsPerStep = 1000
)

// replay drives w's components for warmup+replay ticks and times the
// steady ticks. want holds the traced run's cumulative counts for those
// ticks and wantClusters its ADF cluster count after the last one.
func replay(w workload, seed int64, want []tickCount, wantClusters int) (*replayStats, error) {
	pt, err := newParts(w, seed, 1.0)
	if err != nil {
		return nil, err
	}
	cs, err := pt.collectors()
	if err != nil {
		return nil, err
	}
	m, err := newMirror(pt.adf.Config(), pt.idSpan)
	if err != nil {
		return nil, err
	}
	n := len(pt.nodes)
	var (
		st      = &replayStats{}
		am      allocMeter
		lus     = make([]filter.LU, n)
		fwd     = make([]filter.LU, n)
		present = make([]bool, n)
		left    = make([]bool, n)
		conn    = make([]bool, n)
		sent    = make([]bool, n)
		vals    = newLUValues()
		enc     wire.Encoder
		buf     []byte
		offs    []int
		kept    int
		count   tickCount
	)
	total := w.warmup + w.replay
	for tick := 1; tick <= total; tick++ {
		now := float64(tick) * samplePeriod
		steady := tick > w.warmup
		run := func(s *layerStat, ops int, f func()) {
			if steady {
				am.timed(s, ops, f)
				return
			}
			f()
		}

		run(&st.advance, n, func() {
			for i, nd := range pt.nodes {
				lus[i] = filter.LU{Node: nd.ID(), Time: now, Pos: nd.Advance(samplePeriod)}
			}
		})

		// Churn decisions are the engine's own bookkeeping, not a layer.
		np := 0
		for i := range lus {
			present[i], left[i] = true, false
			if pt.churn != nil {
				present[i], left[i] = pt.churn.Step(lus[i].Node)
			}
			if present[i] {
				np++
			}
		}

		nc := 0
		run(&st.collect, np, func() {
			for i := range lus {
				conn[i] = false
				if present[i] {
					fwd[i], conn[i] = cs[i].Collect(lus[i])
					if conn[i] {
						nc++
					}
				}
			}
		})

		// The ADF sees departures at the departing node's position in
		// node order, exactly as the engine's churn stage forgets them.
		var forgetNS int64
		nf, nt := 0, 0
		run(&st.offer, nc, func() {
			for i := range lus {
				sent[i] = false
				if left[i] {
					s := nanotime()
					id := lus[i].Node
					pt.adf.Forget(id)
					pt.noLE.Forget(id)
					pt.withLE.Forget(id)
					forgetNS += nanotime() - s
					nf++
					continue
				}
				if conn[i] {
					sent[i] = pt.adf.Offer(fwd[i]).Transmit
					if sent[i] {
						nt++
					}
				}
			}
		})
		if steady {
			st.offer.ns -= forgetNS
			st.forget.ns += forgetNS
			st.forget.ops += int64(nf)
			st.collected += int64(np)
			st.delivered += int64(nc)
			st.steadyTicks++
		}
		count.offered += uint64(nc)
		count.transmitted += uint64(nt)
		if tick <= len(want) && count != want[tick-1] {
			return nil, fmt.Errorf("replay diverged from the traced run at tick %d: offered/transmitted %d/%d, traced run %d/%d",
				tick, count.offered, count.transmitted, want[tick-1].offered, want[tick-1].transmitted)
		}

		if err := m.step(&am, st, steady, now, lus, fwd, conn, left); err != nil {
			return nil, err
		}

		run(&st.nole, np, func() {
			for i := range lus {
				if present[i] {
					pt.noLE.Step(lus[i].Node, now, lus[i].Pos, sent[i])
				}
			}
		})
		var est, known int64
		run(&st.withle, np, func() {
			for i := range lus {
				if present[i] {
					e, ok := pt.withLE.Step(lus[i].Node, now, lus[i].Pos, sent[i])
					if ok {
						known++
						if e.Estimated {
							est++
						}
					}
				}
			}
		})
		if !steady {
			continue
		}
		st.estimated += est
		st.known += known

		// The wire codec on the tick's transmitted LUs: the payload the
		// RTI client builds for an LU interaction, and its decode.
		buf, offs = buf[:0], offs[:0]
		am.timed(&st.encode, nt, func() {
			for i := range lus {
				if sent[i] {
					putLU(vals, lus[i].Node, lus[i].Pos.X, lus[i].Pos.Y)
					enc.Reset()
					encodeInteraction(&enc, now, vals)
					buf = append(buf, enc.Bytes()...)
					offs = append(offs, len(buf))
				}
			}
		})
		bad := 0
		am.timed(&st.decode, nt, func() {
			a := 0
			for _, b := range offs {
				d := wire.NewDecoder(buf[a:b])
				_, _, _ = d.Byte(), d.String(), d.Float64()
				if _, _, _, ok := decodeLU(hla.Values(d.Values())); !ok || d.Err() != nil {
					bad++
				}
				a = b
			}
		})
		if bad > 0 {
			return nil, fmt.Errorf("replayed wire decode rejected %d of %d LU payloads", bad, nt)
		}

		if kept < maxReplayLUs {
			var step []luRec
			for i := range lus {
				if sent[i] && len(step) < maxReplayLUsPerStep && kept < maxReplayLUs {
					step = append(step, luRec{Node: lus[i].Node, X: lus[i].Pos.X, Y: lus[i].Pos.Y})
					kept++
				}
			}
			st.lus = append(st.lus, step)
		}
	}

	st.clusters = m.mgr.Len()
	if got := pt.adf.ClusterCount(); got != st.clusters || (wantClusters >= 0 && got != wantClusters) {
		return nil, fmt.Errorf("replayed clustering diverged: manager %d clusters, replayed ADF %d, traced run %d",
			st.clusters, got, wantClusters)
	}

	// Every remaining node departs: the departure path on this
	// workload's full state, timed as one block.
	am.timed(&st.forget, n, func() {
		for _, nd := range pt.nodes {
			pt.adf.Forget(nd.ID())
			pt.noLE.Forget(nd.ID())
			pt.withLE.Forget(nd.ID())
		}
	})
	return st, nil
}

// mirror repeats the ADF's internal classifier and cluster-manager calls
// on its own instances, so those two layers can be timed apart from
// Offer. It follows ADF.Offer: observe, then maintain the membership,
// rebuilding every ReclusterInterval at the first ready node.
type mirror struct {
	cfg     core.Config
	cls     []*core.Classifier
	pat     []core.MobilityPattern
	mgr     *cluster.Manager
	started bool
	last    float64
	ids     []cluster.NodeID
	feats   []cluster.Feature
}

func newMirror(cfg core.Config, idSpan int) (*mirror, error) {
	mgr, err := cluster.NewManager(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	mgr.Preallocate(idSpan)
	return &mirror{cfg: cfg, cls: make([]*core.Classifier, idSpan), pat: make([]core.MobilityPattern, idSpan), mgr: mgr}, nil
}

// birth gives a node seen for the first time since it (re)joined a
// fresh classifier, as ADF.Offer does.
func (m *mirror) birth(node int) error {
	if m.cls[node] != nil {
		return nil
	}
	c, err := core.NewClassifier(m.cfg.Classifier)
	m.cls[node] = c
	return err
}

// step runs one tick's classifier and clustering calls. On a tick that
// rebuilds, the rebuild must see later nodes' previous-tick features,
// so observation is interleaved node by node and not timed.
func (m *mirror) step(am *allocMeter, st *replayStats, steady bool, now float64, lus, fwd []filter.LU, conn, left []bool) error {
	due := m.started && m.cfg.ReclusterInterval > 0 && now-m.last >= m.cfg.ReclusterInterval
	if due {
		// Births first, so the untimed interleaved loop allocates nothing
		// the cluster figures would absorb. A fresh classifier is not
		// ready, so no rebuild can see it early.
		for i := range lus {
			if conn[i] {
				if err := m.birth(lus[i].Node); err != nil {
					return err
				}
			}
		}
	} else {
		nc := 0
		var err error
		observe := func() {
			for i := range lus {
				if conn[i] && err == nil {
					err = m.birth(lus[i].Node)
					m.cls[lus[i].Node].Observe(fwd[i].Time, fwd[i].Pos)
					nc++
				}
			}
		}
		if steady {
			am.timed(&st.classify, 0, observe)
			st.classify.ops += int64(nc)
		} else {
			observe()
		}
		if err != nil {
			return err
		}
	}
	var rebuildAllocs int64
	m0 := am.mallocs()
	for i := range lus {
		id := lus[i].Node
		if left[i] {
			m.cls[id] = nil
			m.pat[id] = core.PatternUnknown
			m.mgr.Remove(cluster.NodeID(id))
			continue
		}
		if !conn[i] {
			continue
		}
		if due {
			m.cls[id].Observe(fwd[i].Time, fwd[i].Pos)
		}
		rebuildAllocs += m.maintain(am, st, steady, id, now)
	}
	st.assign.allocs += int64(am.mallocs()-m0) - rebuildAllocs
	return nil
}

// maintain mirrors the ADF's membership upkeep for one node. Assign and
// rebuild calls are timed one by one (they are rare after the first
// windows fill); it returns the rebuild's allocations.
func (m *mirror) maintain(am *allocMeter, st *replayStats, steady bool, id int, now float64) int64 {
	c := m.cls[id]
	if !c.Ready() {
		return 0
	}
	prev := m.pat[id]
	p := c.Pattern()
	m.pat[id] = p
	nid := cluster.NodeID(id)
	assign := func() {
		s := nanotime()
		m.mgr.Assign(nid, c.Feature())
		st.assign.ns += nanotime() - s
		st.assign.ops++
	}
	switch {
	case p == core.PatternStop:
		m.mgr.Remove(nid)
	case prev != p:
		assign()
	default:
		if _, ok := m.mgr.ClusterOf(nid); !ok {
			assign()
		}
	}
	if !m.started {
		m.started = true
		m.last = now
		return 0
	}
	if m.cfg.ReclusterInterval <= 0 || now-m.last < m.cfg.ReclusterInterval {
		return 0
	}
	m.last = now
	m.ids, m.feats = m.ids[:0], m.feats[:0]
	for nid, c := range m.cls {
		if c != nil && c.Ready() && m.pat[nid] != core.PatternStop {
			m.ids = append(m.ids, cluster.NodeID(nid))
			m.feats = append(m.feats, c.Feature())
		}
	}
	m0 := am.mallocs()
	s := nanotime()
	m.mgr.RebuildOrdered(m.ids, m.feats)
	e := nanotime()
	a := int64(am.mallocs() - m0)
	if steady {
		st.rebuild.ns += e - s
		st.rebuild.allocs += a
		st.rebuild.ops++
	}
	return a
}
