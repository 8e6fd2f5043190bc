package main

import (
	"fmt"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/estimate"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/sim"
)

// workload is one set of inputs. It fixes only workload properties —
// population, drop probability, churn and the measurement windows — and
// no engine knob, so every run measures the engine as users get it by
// default.
type workload struct {
	name string
	// perGroup is the number of nodes per Table-1 (region, pattern,
	// type) group: 5 is the paper's 140 nodes.
	perGroup int
	drop     float64
	// leave and rejoin are the per-second churn probabilities (0: none).
	leave, rejoin float64
	// horizon, when non-zero, is the simulated length of one run; the
	// benchmark repeats whole horizons, each on a freshly built world.
	// Zero means one world ticks until the measuring time is spent.
	horizon int
	// warmup is the number of untimed ticks before the steady window,
	// long enough for the per-tick cost to settle.
	warmup int
	// quality is the fixed tick prefix the deterministic quality metrics
	// (reduction, RMSE) are computed over; every run reaches it.
	quality int
	// setups is how many times set-up is repeated to time it.
	setups int
	// replay is the number of steady ticks the layer replay times after
	// its own warmup.
	replay int
	// block is the number of ticks per traced or untraced block when a
	// traced run alternates the two to measure tracing overhead.
	block int
}

var workloads = []workload{
	{
		name: "paper-140", perGroup: 5, drop: 0.035,
		horizon: 1800, quality: 1800, replay: 1500, warmup: 300, block: 1800,
	},
	{
		name: "campus-churn-50k", perGroup: 1786, drop: 0.035, leave: 0.02, rejoin: 0.3,
		warmup: 70, quality: 40, setups: 3, replay: 10, block: 10,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// parts are the simulation's components, built from the seed exactly as
// the experiment package builds a default run: Table-1 population on the
// synthetic campus, per-region gateways, the ADF at the given DTH factor
// and two brokers (no LE, gap-aware LE). The simulated runs wire them
// into the engine; the layer replay drives them one layer at a time.
//
// This file is the only one that names the engine's pipeline shape and
// RNG stream class.
type parts struct {
	nodes  []*node.Node
	net    *gateway.Network
	churn  *engine.Churn
	adf    *core.ADF
	noLE   *broker.Broker
	withLE *broker.Broker
	idSpan int
}

const samplePeriod = 1.0

func newParts(w workload, seed int64, factor float64) (*parts, error) {
	world := campus.New()
	streams := sim.NewStreams(seed)
	nodes, err := node.Population(campus.PopulationN(world, w.perGroup), world, streams)
	if err != nil {
		return nil, err
	}
	net, err := gateway.NewNetwork(world, w.drop, streams)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.DTHFactor = factor
	cfg.SamplePeriod = samplePeriod
	adf, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	le := estimate.DefaultGapAwareConfig()
	le.HeadingAlpha = estimate.DefaultSmoothing
	if _, err := estimate.NewGapAwareLE(le); err != nil {
		return nil, err
	}
	pt := &parts{
		nodes: nodes,
		net:   net,
		adf:   adf,
		noLE:  broker.New(nil),
		withLE: broker.New(func() estimate.PositionEstimator {
			e, _ := estimate.NewGapAwareLE(le) // validated above
			return e
		}),
	}
	for _, n := range nodes {
		if n.ID() >= pt.idSpan {
			pt.idSpan = n.ID() + 1
		}
	}
	adf.Preallocate(pt.idSpan)
	pt.noLE.Preallocate(pt.idSpan)
	pt.withLE.Preallocate(pt.idSpan)
	if w.leave > 0 {
		pt.churn = engine.NewChurn(w.leave, w.rejoin, streams.Stream("churn"))
	}
	return pt, nil
}

// collectors resolves each node's home-region gateway, in node order.
func (pt *parts) collectors() ([]gateway.Collector, error) {
	cs := make([]gateway.Collector, len(pt.nodes))
	for i, n := range pt.nodes {
		g, err := pt.net.Gateway(n.Region().ID)
		if err != nil {
			return nil, err
		}
		cs[i] = g
	}
	return cs, nil
}

// world is one simulation behind the engine's default pipeline. The
// filter and observer slots are plain fields, so a traced run can swap
// in the span-recording wrappers between ticks and back out again.
type world struct {
	p     *engine.Pipeline
	adf   *core.ADF
	sink  *sink
	nodes int
	// The untraced and, once setTracer ran, the span-recording filter
	// and observers.
	plainFilter     filter.Filter
	plainObservers  engine.Observers
	tracedFilter    filter.Filter
	tracedObservers engine.Observers
}

func buildWorld(w workload, seed int64, factor float64) (*world, error) {
	pt, err := newParts(w, seed, factor)
	if err != nil {
		return nil, err
	}
	s := &sink{}
	p := &engine.Pipeline{
		Nodes:        pt.nodes,
		Net:          pt.net,
		Filter:       pt.adf,
		NoLE:         pt.noLE,
		WithLE:       pt.withLE,
		Churn:        pt.churn,
		SamplePeriod: samplePeriod,
		Observers:    engine.Observers{s},
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &world{p: p, adf: pt.adf, sink: s, nodes: len(pt.nodes), plainFilter: p.Filter, plainObservers: p.Observers}, nil
}

// tick runs sampling round n (virtual time n × period).
func (wd *world) tick(n int) error { return wd.p.Tick(float64(n) * samplePeriod) }

// setTracer builds the span-recording wrappers around the filter and
// the observer, recording into tr.
func (wd *world) setTracer(tr *tracer) {
	wd.tracedFilter = &tracedFilter{f: wd.plainFilter, tr: tr}
	wd.tracedObservers = engine.Observers{&tracedObserver{o: wd.sink, tr: tr}}
}

// trace swaps the wrappers in or out between ticks.
func (wd *world) trace(on bool) {
	if on {
		wd.p.Filter, wd.p.Observers = wd.tracedFilter, wd.tracedObservers
		return
	}
	wd.p.Filter, wd.p.Observers = wd.plainFilter, wd.plainObservers
}

func (wd *world) close() { wd.p.Close() }
