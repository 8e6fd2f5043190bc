// Package broker implements the grid broker of section 3.4: the wired-grid
// component that manages mobile resources. It keeps a location DB with one
// entry per mobile node and a pluggable Location Estimator. When a
// location update arrives the reported position is stored; when the update
// was filtered the broker stores the estimator's forecast instead, so the
// DB always holds the broker's best belief about every node.
package broker

import (
	"fmt"
	"sort"

	"github.com/mobilegrid/adf/internal/dense"
	"github.com/mobilegrid/adf/internal/estimate"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/obs"
)

// Entry is one location-DB record.
type Entry struct {
	// Node is the mobile node's ID.
	Node int
	// Pos is the broker's believed location.
	Pos geo.Point
	// Time is the virtual time the belief was last refreshed.
	Time float64
	// Estimated is true when Pos came from the Location Estimator rather
	// than a received LU.
	Estimated bool
}

// record is one node's DB state. A record is born by the node's first
// report, so every stored record holds one.
type record struct {
	// est is nil on a broker without estimation: lastReported is then
	// the whole belief.
	est          estimate.PositionEstimator
	lastReported geo.Point
	believed     Entry
}

// Broker is the grid broker.
type Broker struct {
	newEstimator estimate.Factory
	// records is keyed by node ID. Node IDs are assigned densely from
	// zero, so the per-tick record lookups — the broker is touched for
	// every node every sampling period — resolve to a slice index. The
	// Slab keeps no shared bookkeeping, so after Preallocate the engine's
	// region shards may Step disjoint node sets concurrently.
	records dense.Slab[record]

	// Counters for experiment reporting. Shard-parallel callers must not
	// touch these directly — they accumulate into a Tally and merge it
	// deterministically with AddTally.
	received  uint64
	estimated uint64
}

// New returns a broker whose Location Estimator instances are built by
// factory. A nil factory disables estimation (the paper's "without LE"
// configuration): the broker then believes each node's last report, with
// no per-node estimator object, and labels and counts each refresh
// exactly as an estimate.LastKnown estimator would — Estimated set, and
// counted by EstimatedLUs.
func New(factory estimate.Factory) *Broker {
	return &Broker{newEstimator: factory}
}

// Preallocate sizes the location DB's dense window for node IDs in
// [0, n), so later record births never move the storage. Sharded
// execution requires it: concurrent Steps on disjoint node sets are only
// race-free once growth is off the hot path.
func (b *Broker) Preallocate(n int) { b.records.Grow(n) }

func (b *Broker) record(node int) *record {
	r := b.records.Ptr(node)
	if r == nil {
		//adf:allow hotpath — first report from a node; later ticks take
		// the Ptr fast path.
		r = b.records.PutPtr(node, record{})
		if b.newEstimator != nil {
			r.est = b.newEstimator()
		}
		obs.BrokerRecords.Inc()
	}
	return r
}

// ReceiveLU stores a received location update in the location DB and
// feeds the node's estimator.
func (b *Broker) ReceiveLU(node int, t float64, p geo.Point) {
	b.receive(b.record(node), node, t, p)
	b.received++
}

//adf:hotpath
func (b *Broker) receive(r *record, node int, t float64, p geo.Point) {
	r.lastReported = p
	if r.est != nil {
		r.est.Observe(t, p)
	}
	r.believed = Entry{Node: node, Pos: p, Time: t, Estimated: false}
	b.checkBelief(r)
}

// miss refreshes a known node's belief from the estimator and reports
// whether the estimator (rather than the last report) supplied the
// position, so the caller can attribute the refresh to its own counter.
//
//adf:hotpath
func (b *Broker) miss(r *record, node int, t float64) (Entry, bool) {
	// No estimator: the last report, labelled as estimate.LastKnown would.
	pos := r.lastReported
	estimated := r.est == nil
	if !estimated && r.est.Ready() {
		pos = r.est.Predict(t)
		estimated = true
	}
	r.believed = Entry{Node: node, Pos: pos, Time: t, Estimated: estimated}
	b.checkBelief(r)
	return r.believed, estimated
}

// MissLU tells the broker that node's LU for time t was filtered. The
// broker refreshes the node's DB entry with the estimator's forecast (or
// keeps the last report when the estimator is not ready yet). It returns
// the refreshed entry.
func (b *Broker) MissLU(node int, t float64) (Entry, error) {
	r := b.records.Ptr(node)
	if r == nil {
		return Entry{}, fmt.Errorf("broker: no location on record for node %d", node)
	}
	e, estimated := b.miss(r, node, t)
	if estimated {
		b.estimated++
	}
	return e, nil
}

// Step processes one sampling period for a node with a single record
// lookup: a received LU is stored (like ReceiveLU), a filtered or dropped
// one refreshes the belief (like MissLU, but without constructing an
// error for unknown nodes). It returns the broker's resulting belief, or
// false when the node has never reported. This is the simulation engine's
// hot path.
//
//adf:hotpath
func (b *Broker) Step(node int, t float64, p geo.Point, received bool) (Entry, bool) {
	if received {
		r := b.record(node)
		b.receive(r, node, t, p)
		b.received++
		return r.believed, true
	}
	r := b.records.Ptr(node)
	if r == nil {
		return Entry{}, false
	}
	e, estimated := b.miss(r, node, t)
	if estimated {
		b.estimated++
	}
	return e, true
}

// Tally accumulates Step outcomes for one shard. The engine's region
// shards each own a Tally so the broker's shared counters are never
// written concurrently; the merge step folds the tallies back in shard
// order with AddTally.
type Tally struct {
	// Received counts LUs stored from the network.
	Received uint64
	// Estimated counts belief refreshes served by the Location Estimator.
	Estimated uint64
}

// StepTally is Step for shard-parallel callers: identical record
// mutation, but the received/estimated attribution lands in tl instead
// of the broker's shared counters. The node must be inside the
// Preallocate-d window and owned by exactly one shard this tick.
//
//adf:hotpath
func (b *Broker) StepTally(node int, t float64, p geo.Point, received bool, tl *Tally) (Entry, bool) {
	if received {
		r := b.record(node)
		b.receive(r, node, t, p)
		tl.Received++
		return r.believed, true
	}
	r := b.records.Ptr(node)
	if r == nil {
		return Entry{}, false
	}
	e, estimated := b.miss(r, node, t)
	if estimated {
		tl.Estimated++
	}
	return e, true
}

// AddTally folds one shard's tally into the broker's run counters and
// zeroes it for reuse. Call sequentially, in stable shard order.
func (b *Broker) AddTally(tl *Tally) {
	b.received += tl.Received
	b.estimated += tl.Estimated
	tl.Received, tl.Estimated = 0, 0
}

// Location returns the broker's current belief about a node.
func (b *Broker) Location(node int) (Entry, bool) {
	r := b.records.Ptr(node)
	if r == nil {
		return Entry{}, false
	}
	return r.believed, true
}

// Locations returns a snapshot of the whole location DB ordered by node
// ID.
func (b *Broker) Locations() []Entry {
	out := make([]Entry, 0, b.records.Count())
	b.records.Range(func(node int, r *record) bool {
		e := r.believed
		e.Node = node
		out = append(out, e)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Forget drops a node from the location DB.
func (b *Broker) Forget(node int) {
	if b.records.Delete(node) {
		obs.BrokerForgets.Inc()
	}
}

// NodeCount returns the number of nodes with a DB entry.
func (b *Broker) NodeCount() int { return b.records.Count() }

// ReceivedLUs returns the number of LUs stored from the network.
func (b *Broker) ReceivedLUs() uint64 { return b.received }

// EstimatedLUs returns the number of DB refreshes served by the Location
// Estimator.
func (b *Broker) EstimatedLUs() uint64 { return b.estimated }
