// Package engine decomposes the per-tick simulation loop into explicit
// pipeline stages — mobility advance → churn → gateway collect → filter →
// broker delivery → error measurement — with pluggable Observers for the
// metric sinks, plus the bounded worker pool (Group) the campaign layer
// uses to run independent simulations concurrently.
//
// One Pipeline type runs every simulation, in one of two shapes: a single
// global shard (the paper's campus-wide clustering) or one shard per
// region. Either way its results do not depend on Pipeline.Workers, and
// each simulation owns a private Pipeline, sim.Simulator and sim.Streams,
// so running simulations concurrently on a Group is bit-for-bit identical
// to running them one after another.
package engine

import (
	"fmt"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/dense"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/obs"
	"github.com/mobilegrid/adf/internal/sim"
)

// Sample is one node's position sample flowing through the pipeline.
type Sample struct {
	// Node is the mobile node's ID.
	Node int
	// Region is the node's home region.
	Region *campus.Region
	// Time is the virtual time the position was sampled at.
	Time float64
	// Pos is the node's true position.
	Pos geo.Point
}

// Variant names one of the two broker variants run in lockstep.
type Variant int

const (
	// NoLE is the broker without a Location Estimator.
	NoLE Variant = iota
	// WithLE is the broker with the Location Estimator.
	WithLE
)

// String returns the variant's experiment-output name.
func (v Variant) String() string {
	if v == WithLE {
		return "with-le"
	}
	return "no-le"
}

// Observer receives pipeline events. Implementations are metric sinks
// (traffic counters, energy accounting, RMSE accumulators); they must not
// mutate simulation state. Returning a non-nil error aborts the run and
// surfaces through Pipeline.Run.
type Observer interface {
	// OnOffered fires when a sample survives wireless disconnection and
	// reaches the filter.
	OnOffered(s Sample) error
	// OnTransmitted fires when the filter forwards the sample to the
	// brokers.
	OnTransmitted(s Sample) error
	// OnError fires once per broker variant that holds a belief for the
	// node, with the believed-vs-true distance.
	OnError(s Sample, v Variant, dist float64) error
	// OnTick fires after every node has been processed for one sampling
	// round.
	OnTick(now float64) error
}

// BaseObserver is a no-op Observer for embedding, so sinks implement only
// the events they care about.
type BaseObserver struct{}

// OnOffered implements Observer.
func (BaseObserver) OnOffered(Sample) error { return nil }

// OnTransmitted implements Observer.
func (BaseObserver) OnTransmitted(Sample) error { return nil }

// OnError implements Observer.
func (BaseObserver) OnError(Sample, Variant, float64) error { return nil }

// OnTick implements Observer.
func (BaseObserver) OnTick(float64) error { return nil }

// Observers fans each event out to every observer in slice order,
// stopping at the first error.
type Observers []Observer

var _ Observer = Observers(nil)

// OnOffered implements Observer.
func (os Observers) OnOffered(s Sample) error {
	for _, o := range os {
		if err := o.OnOffered(s); err != nil {
			return err
		}
	}
	return nil
}

// OnTransmitted implements Observer.
func (os Observers) OnTransmitted(s Sample) error {
	for _, o := range os {
		if err := o.OnTransmitted(s); err != nil {
			return err
		}
	}
	return nil
}

// OnError implements Observer.
func (os Observers) OnError(s Sample, v Variant, dist float64) error {
	for _, o := range os {
		if err := o.OnError(s, v, dist); err != nil {
			return err
		}
	}
	return nil
}

// OnTick implements Observer.
func (os Observers) OnTick(now float64) error {
	for _, o := range os {
		if err := o.OnTick(now); err != nil {
			return err
		}
	}
	return nil
}

// Churn models nodes leaving and rejoining the grid (the paper's
// "relocation" constraint). Decisions draw from a dedicated RNG stream in
// node order, which keeps churned runs reproducible.
type Churn struct {
	leaveProb  float64
	rejoinProb float64
	rng        *sim.RNG
	absent     dense.Map[bool]
	// obsv, when set by the owning pipeline, receives rejoin tallies
	// (only Step can tell a rejoin from an ordinary present tick).
	obsv *obs.TickLocal
}

// NewChurn returns a churn model: an active node departs with leaveProb
// per tick, a departed one returns with rejoinProb.
func NewChurn(leaveProb, rejoinProb float64, rng *sim.RNG) *Churn {
	return &Churn{
		leaveProb:  leaveProb,
		rejoinProb: rejoinProb,
		rng:        rng,
	}
}

// Step draws this tick's churn decision for one node: present reports
// whether the node takes part in the tick, left that it departed just now
// (so its filter and broker state must be forgotten). A rejoining node is
// present in the same tick it returns.
//
//adf:hotpath
func (c *Churn) Step(id int) (present, left bool) {
	if away, _ := c.absent.Get(id); away {
		if c.rng.Bool(c.rejoinProb) {
			c.absent.Delete(id)
			if c.obsv != nil {
				c.obsv.ChurnRejoined++
			}
			return true, false
		}
		return false, false
	}
	if c.rng.Bool(c.leaveProb) {
		c.absent.Put(id, true)
		return false, true
	}
	return true, false
}

// AbsentCount returns the number of currently departed nodes.
func (c *Churn) AbsentCount() int { return c.absent.Len() }

// Pipeline wires one simulation's stages together. Every tick runs the
// same four steps: mobility advance, a sequential prepass (shared churn
// draws and migration detection, in node order), the shard stage (gateway
// collect → filter → broker delivery, per shard) and a deterministic merge
// that replays the shards' buffered effects in shard order.
//
// The shard key is the pipeline's shape, chosen by which filter field is
// set (exactly one must be):
//
//   - Filter: one global shard over every node in node order, so a
//     clustering filter like the ADF clusters the whole campus — the
//     paper's deployment.
//   - NewFilter: one shard per home region, in ascending region-ID order,
//     each with its own filter instance, so the ADF clusters per region
//     and the shards run in parallel.
//
// A shard's stage chain touches only shard-local state: the gateways of
// its members (a region's gateway and its RNG stream belong to exactly one
// shard), the shard's filter, and the broker records of its members
// (shard-safe after Preallocate, because the dense.Slab does no shared
// bookkeeping). Cross-shard effects — observer events, broker tallies,
// observability batches, migration handoff — are buffered per shard and
// applied by the merge step in shard order, never in completion order;
// only when the shards run inline, one after the other, do observer
// events fire straight from the shard stage, in that same order. Results
// are therefore bit-for-bit identical at every worker count.
type Pipeline struct {
	// Nodes is the mobile population, advanced in slice order every tick
	// (the fixed order pins RNG consumption, keeping runs reproducible).
	Nodes []*node.Node
	// Net is the per-region wireless gateway network.
	Net *gateway.Network
	// Filter selects the global shape: this one filter decides which LUs
	// of every node reach the brokers. It is read again on every tick, so
	// a caller may swap it between ticks.
	Filter filter.Filter
	// NewFilter selects the region shape: it builds one filter instance
	// per region shard on the first tick.
	NewFilter func() (filter.Filter, error)
	// NoLE and WithLE are the two broker variants run in lockstep on
	// identical inputs, so their error curves are directly comparable.
	// They are shared by every shard: the location DB is the wired-grid
	// side and stays global. Their dense windows are Preallocate-d on the
	// first tick, so shard Steps on disjoint node sets are race-free.
	NoLE, WithLE *broker.Broker
	// Churn, when non-nil, lets nodes leave and rejoin the grid. Its one
	// RNG stream is drawn by the sequential prepass in node order; the
	// owning shard applies each verdict at the node's position in its
	// pass, so a departing node is forgotten between the filter calls of
	// the nodes before and after it.
	Churn *Churn
	// ChurnK is the keyed-mode churn timeline (at most one of Churn and
	// ChurnK may be set): flips are pre-scheduled geometric events, so a
	// tick costs O(events due) instead of one draw per node. Each shard
	// processes its own timeline partition inside the shard stage.
	ChurnK *KeyedChurn
	// SamplePeriod is the sampling interval in virtual seconds.
	SamplePeriod float64
	// Observers receive the pipeline's events, replayed sequentially by
	// the merge step (they are never called concurrently). Read again on
	// every tick, like Filter.
	Observers Observers
	// Workers bounds the worker pool that runs the advance stage and the
	// shard stage; 0 or 1 runs both inline. It never changes a result,
	// only which goroutine computes it.
	Workers int
	// Rehome, when set, is the region shape's migration hook: it maps a
	// node's sample to the region shard that should own it from the next
	// tick on. It must be a pure function of the sample so every worker
	// count agrees on the handoff set. The node is still processed by its
	// old shard on the tick it migrates; ownership, the gateway that
	// collects its samples and its filter state transfer at merge. A nil
	// Rehome pins every node to its home region.
	Rehome func(s Sample) campus.RegionID

	built   bool
	samples []Sample
	// verdict[i] is node index i's sequential churn verdict this tick.
	verdict []verdict
	// owner[i] is the index in shards of node i's owning shard.
	owner []int
	// slot[i] indexes regions with the region whose gateway collects node
	// i's samples: its home region, or after a handoff its new region (in
	// the region shape slot[i] equals owner[i]).
	slot []int
	// regions are the nodes' home regions in ascending ID order.
	regions  []region
	shards   []*shardCtx
	shardOf  map[campus.RegionID]int
	handoffs []handoff
	// now and chunks are the advance stage's tick time and node-range
	// count, read by its tasks.
	now    float64
	chunks int
	pool   *workerPool
	// advanceFn and shardFn are the pool's task bodies, bound once so a
	// dispatch allocates nothing.
	advanceFn, shardFn func(int)
	// san is the runtime sanitizer's bookkeeping. In the default build it
	// is an empty struct and sanitizeTick is an inlined no-op; under
	// -tags adfcheck it holds the campus bounding box and the previous
	// tick time (see sanitize_on.go).
	san sanitizerState

	// direct is set while the shard stage runs inline, one shard after
	// the other: each node's observer events then fire as soon as both
	// brokers hold its LU, in the order the merge would replay them, and
	// err latches the first observer error.
	direct bool
	err    error

	// obsOn caches obs.Enabled for the tick, and verbose whether the
	// opt-in per-LU event is on, so the shards read plain fields.
	obsOn, verbose bool
	// tid is this pipeline's Chrome-trace track, so concurrent campaign
	// simulations render on separate rows.
	tid uint32
	// master is the tick's counter/histogram batch the shard batches
	// merge into; it flushes into the registry while obs is enabled.
	master obs.TickLocal
	// tick counts processed sampling rounds; it keys the churn timeline.
	tick uint64
}

// verdict is one node's sequential churn outcome for a tick.
type verdict uint8

const (
	// nodeIn takes part in the tick.
	nodeIn verdict = iota
	// nodeOut is away from the grid and sits the tick out.
	nodeOut
	// nodeLeft departed this tick and is forgotten by its shard.
	nodeLeft
)

// region is one campus region's gateway plus its plain per-tick LU
// tallies and the global labeled counters they flush into.
type region struct {
	gw              gateway.Collector
	offered, sent   uint64
	offeredC, sentC *obs.Counter
}

// Validate reports wiring errors.
func (p *Pipeline) Validate() error {
	switch {
	case len(p.Nodes) == 0:
		return fmt.Errorf("engine: pipeline has no nodes")
	case p.Net == nil:
		return fmt.Errorf("engine: pipeline has no gateway network")
	case (p.Filter == nil) == (p.NewFilter == nil):
		return fmt.Errorf("engine: pipeline needs exactly one of Filter (global shape) and NewFilter (region shape)")
	case p.NoLE == nil || p.WithLE == nil:
		return fmt.Errorf("engine: pipeline needs both broker variants")
	case p.SamplePeriod <= 0:
		return fmt.Errorf("engine: non-positive sample period %v", p.SamplePeriod)
	case p.Workers < 0:
		return fmt.Errorf("engine: negative Workers %d", p.Workers)
	case p.Churn != nil && p.ChurnK != nil:
		return fmt.Errorf("engine: both Churn and ChurnK set; pick one churn model")
	case p.Rehome != nil && p.NewFilter == nil:
		return fmt.Errorf("engine: Rehome needs the region shape (NewFilter)")
	}
	return nil
}

// Run schedules the pipeline on s at every sample period (first tick at
// one period, like the paper's 1 Hz sampling) and executes until the
// horizon, surfacing the first stage or observer error. The worker pool
// is released before Run returns.
func (p *Pipeline) Run(s *sim.Simulator, horizon float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	defer p.Close()
	if _, err := s.EveryErr(p.SamplePeriod, p.SamplePeriod, p.Tick); err != nil {
		return err
	}
	return s.RunUntil(horizon)
}

// Close releases the worker pool, if one was started. It is safe to call
// repeatedly; a later Tick simply restarts the pool. Callers that drive
// Tick directly with Workers > 1 should Close when done.
func (p *Pipeline) Close() {
	if p.pool != nil {
		p.pool.close()
		p.pool = nil
	}
}

// Tick processes one sampling round: advance positions every node, the
// sequential prepass draws churn and detects migrations in node order,
// the shard stage runs every shard, and the merge step replays the
// buffered effects in shard order before OnTick fires. While
// observability is enabled each stage is timed into a trace span and the
// tick's batched tallies flush into the global registry.
func (p *Pipeline) Tick(now float64) error {
	if !p.built {
		if err := p.build(); err != nil {
			return err
		}
	}
	if p.NewFilter == nil {
		p.shards[0].filt = p.Filter
	}
	p.obsOn = obs.Enabled()
	p.verbose = p.obsOn && obs.Events.Verbose()
	t0 := obs.StageStart()
	p.stageAdvance(now)
	t1 := obs.StageEnd(p.tid, obs.StageAdvance, t0)
	p.sanitizeTick(now)
	p.tick++
	p.stagePrepass()
	p.direct = p.Workers <= 1 || len(p.shards) == 1
	p.parallel(len(p.shards), p.shardFn)
	t2 := obs.StageEnd(p.tid, obs.StageNodes, t1)
	if err := p.err; err != nil {
		p.err = nil
		return err
	}
	if err := p.merge(); err != nil {
		return err
	}
	t3 := obs.StageEnd(p.tid, obs.StageMerge, t2)
	err := p.Observers.OnTick(now)
	t4 := obs.StageEnd(p.tid, obs.StageObservers, t3)
	obs.RecordSpan(p.tid, obs.StageTick, t0, t4)
	if p.obsOn {
		p.master.Flush()
	}
	return err
}

// parallel runs task k for every k in [0, n): on the worker pool when
// Workers > 1 and there is more than one task, otherwise inline in
// ascending order. Either way every task computes the same thing.
func (p *Pipeline) parallel(n int, task func(int)) {
	if p.Workers <= 1 || n <= 1 {
		for k := 0; k < n; k++ {
			task(k)
		}
		return
	}
	if p.pool == nil {
		p.pool = newWorkerPool(p.Workers)
	}
	p.pool.dispatch(n, task)
}

// stageAdvance advances every node's mobility model one sample period,
// in one contiguous node range per worker, and records the samples.
// Movement continues even while a node is absent from the grid (people
// keep walking after closing their laptop).
func (p *Pipeline) stageAdvance(now float64) {
	p.chunks = min(max(p.Workers, 1), len(p.Nodes))
	p.now = now
	p.parallel(p.chunks, p.advanceFn)
}

// advanceChunk advances node range k of the tick's chunks. Each node's
// mobility draws only from its private RNG stream, so disjoint ranges
// can advance concurrently with sequential-identical results.
//
//adf:hotpath
func (p *Pipeline) advanceChunk(k int) {
	n := len(p.Nodes)
	for i := k * n / p.chunks; i < (k+1)*n/p.chunks; i++ {
		nd := p.Nodes[i]
		pos := nd.Advance(p.SamplePeriod)
		p.samples[i] = Sample{Node: nd.ID(), Region: nd.Region(), Time: p.now, Pos: pos}
	}
}

// stagePrepass is the sequential prefix of the per-node stages. It draws
// the shared churn stream in node order into verdict, for the shards to
// apply, and asks Rehome for this tick's migrations, recorded in node
// order so the merge applies them identically at every worker count.
// Keyed churn needs no prefix: each shard drains its own timeline
// partition in the shard stage, unless Rehome must see this tick's
// verdicts first.
func (p *Pipeline) stagePrepass() {
	p.handoffs = p.handoffs[:0]
	if p.ChurnK != nil {
		if p.Rehome == nil {
			return
		}
		for _, sh := range p.shards {
			p.ChurnK.ProcessPart(sh.idx, p.tick, sh)
		}
		for i := range p.samples {
			if !p.ChurnK.Absent(p.samples[i].Node) {
				p.rehome(i)
			}
		}
		return
	}
	if p.Churn == nil && p.Rehome == nil {
		return
	}
	for i := range p.samples {
		v := nodeIn
		if p.Churn != nil {
			switch in, left := p.Churn.Step(p.samples[i].Node); {
			case left:
				v = nodeLeft
			case !in:
				v = nodeOut
			}
		}
		p.verdict[i] = v
		if v == nodeIn {
			p.rehome(i)
		}
	}
}

// rehome records node index i's handoff when Rehome moves it to another
// existing region shard.
func (p *Pipeline) rehome(i int) {
	if p.Rehome == nil {
		return
	}
	if to, ok := p.shardOf[p.Rehome(p.samples[i])]; ok && to != p.owner[i] {
		p.handoffs = append(p.handoffs, handoff{node: i, from: p.owner[i], to: to})
	}
}
