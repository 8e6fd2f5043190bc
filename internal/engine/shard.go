package engine

import (
	"fmt"
	"sort"
	"sync"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/obs"
)

// globalShard labels the global shape's one shard in metrics and digests.
const globalShard = "campus"

// shardCtx is one shard's private state: everything its stage chain
// touches without synchronisation, plus the buffered cross-shard effects
// the merge step applies.
type shardCtx struct {
	idx int
	// label is the shard's region ID, or globalShard.
	label string
	filt  filter.Filter
	// members are the owned node indices, ascending — the node order, so
	// every gateway stream is consumed as the same subsequence in both
	// shapes.
	members []int
	// outcomes buffers this tick's per-node results for the merge step's
	// observer replay. Reused; capacity settles at the member count.
	outcomes []outcome
	// lus buffers the opt-in per-LU events, emitted at merge.
	lus []luEvent
	// local batches the shard's counter/histogram tallies; merged into
	// the pipeline's master batch in shard order.
	local obs.TickLocal
	// noLE/withLE collect the shard's broker attributions, folded back
	// via Broker.AddTally in shard order.
	noLE, withLE broker.Tally
	// noLEB/withLEB are the shared brokers, held here so the shard's
	// churn partition can Forget departing members itself (record
	// deletes are shard-safe after Preallocate; the forget counter is
	// atomic).
	noLEB, withLEB *broker.Broker
	shardH         *obs.Histogram
	nodesG         *obs.Gauge
	// startNS/endNS are the shard span endpoints, read inside the worker
	// and recorded sequentially at merge.
	startNS, endNS int64
}

// ChurnEvent implements ChurnSink for the shard's own churn partition,
// and applies the shard's sequential-churn departures: tallies go into
// the shard-local batch (merged in shard order), and a departure forgets
// the node from the shard's filter and both brokers — all shard-safe,
// since only owned nodes are ever reported.
func (sh *shardCtx) ChurnEvent(id int, left bool) {
	if left {
		sh.local.ChurnLeft++
		sh.filt.Forget(id)
		sh.noLEB.Forget(id)
		sh.withLEB.Forget(id)
		return
	}
	sh.local.ChurnRejoined++
}

// outcome is one node's buffered tick result: which observer events to
// replay and the believed-vs-true distances measured in the shard.
type outcome struct {
	idx   int32
	flags uint8
	// distNoLE/distWithLE are the broker error distances (valid when the
	// corresponding flag is set).
	distNoLE, distWithLE float64
}

const (
	ocOffered uint8 = 1 << iota
	ocTransmitted
	ocNoLE
	ocWithLE
)

// luEvent is one filter verdict for the opt-in per-LU event log.
type luEvent struct {
	t, dist, dth float64
	node         int
	sent         bool
}

// handoff is one node's pending migration, applied at merge.
type handoff struct {
	node     int
	from, to int
}

// build resolves the shards: the distinct home regions in ascending ID
// order with their gateways and LU counters, every node's region slot,
// and either one global shard over all nodes or one shard per region
// with its own filter instance. It also pre-sizes the brokers' dense windows
// and the reusable tick buffers.
func (p *Pipeline) build() error {
	if err := p.Validate(); err != nil {
		return err
	}
	slotOf := make(map[campus.RegionID]int)
	var ids []campus.RegionID
	for _, n := range p.Nodes {
		id := n.Region().ID
		if _, ok := slotOf[id]; !ok {
			slotOf[id] = -1 // placeholder until sorted
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	p.regions = make([]region, len(ids))
	for k, id := range ids {
		gw, err := p.Net.Gateway(id)
		if err != nil {
			return err
		}
		slotOf[id] = k
		p.regions[k] = region{gw: gw, offeredC: obs.RegionOffered(string(id)), sentC: obs.RegionSent(string(id))}
	}
	if p.NewFilter == nil {
		p.shards = []*shardCtx{p.newShardCtx(0, globalShard, p.Filter)}
	} else {
		p.shards = make([]*shardCtx, len(ids))
		for k, id := range ids {
			filt, err := p.NewFilter()
			if err != nil {
				return fmt.Errorf("engine: shard %s filter: %w", id, err)
			}
			p.shards[k] = p.newShardCtx(k, string(id), filt)
		}
		p.shardOf = slotOf
	}
	n := len(p.Nodes)
	p.slot = make([]int, n)
	p.owner = make([]int, n)
	p.verdict = make([]verdict, n)
	maxID := 0
	for i, nd := range p.Nodes {
		k := slotOf[nd.Region().ID]
		p.slot[i] = k
		if p.NewFilter != nil {
			p.owner[i] = k
		}
		sh := p.shards[p.owner[i]]
		sh.members = append(sh.members, i)
		maxID = max(maxID, nd.ID())
	}
	p.NoLE.Preallocate(maxID + 1)
	p.WithLE.Preallocate(maxID + 1)
	p.samples = make([]Sample, n)
	p.tid = obs.NextTID()
	p.master.Init()
	if p.Churn != nil {
		p.Churn.obsv = &p.master
	}
	if p.ChurnK != nil {
		partIDs := make([][]int, len(p.shards))
		for k, sh := range p.shards {
			partIDs[k] = make([]int, len(sh.members))
			for j, m := range sh.members {
				partIDs[k][j] = p.Nodes[m].ID()
			}
		}
		p.ChurnK.InitParts(partIDs)
	}
	p.advanceFn, p.shardFn = p.advanceChunk, p.runShard
	p.built = true
	return nil
}

func (p *Pipeline) newShardCtx(idx int, label string, filt filter.Filter) *shardCtx {
	sh := &shardCtx{
		idx:     idx,
		label:   label,
		filt:    filt,
		noLEB:   p.NoLE,
		withLEB: p.WithLE,
		shardH:  obs.ShardSeconds(label),
		nodesG:  obs.ShardNodes(label),
	}
	sh.local.Init()
	return sh
}

// runShard executes shard k's per-node stage chain — gateway collect,
// filter, broker delivery — over its members in ascending index order,
// firing each node's observer events when the stage runs inline and
// otherwise buffering them, with the error distances, for the merge.
// Everything it writes is shard-local or keyed by an owned node; the
// shardstage lint rule holds it (and future edits) to that.
//
//adf:hotpath
//adf:shardstage
func (p *Pipeline) runShard(k int) {
	sh := p.shards[k]
	sh.startNS = obs.StageStart()
	sh.outcomes = sh.outcomes[:0]
	sh.lus = sh.lus[:0]
	if p.ChurnK != nil {
		p.ChurnK.ProcessPart(sh.idx, p.tick, sh) //adf:allow hotpath — event timeline; buckets recycle through a free list
	}
	for _, i := range sh.members {
		s := &p.samples[i]
		if p.ChurnK != nil {
			if p.ChurnK.Absent(s.Node) {
				continue
			}
		} else if v := p.verdict[i]; v != nodeIn {
			if v == nodeLeft {
				sh.ChurnEvent(s.Node, true)
			}
			continue
		}
		o := outcome{idx: int32(i)}
		forwarded, connected := p.regions[p.slot[i]].gw.Collect(filter.LU{Node: s.Node, Time: s.Time, Pos: s.Pos})
		transmitted := false
		if connected {
			o.flags |= ocOffered
			d := sh.filt.Offer(forwarded)
			sh.local.Offered++
			filter.Observe(d, &sh.local, p.obsOn)
			if d.Transmit {
				o.flags |= ocTransmitted
				sh.local.BrokerReceived++
				transmitted = true
			}
			if p.verbose {
				//adf:allow hotpath — opt-in per-LU event log; off unless obs events are verbose
				sh.lus = append(sh.lus, luEvent{t: s.Time, dist: d.Distance, dth: d.Threshold, node: s.Node, sent: d.Transmit})
			}
		}
		if e, ok := p.NoLE.StepTally(s.Node, s.Time, s.Pos, transmitted, &sh.noLE); ok {
			o.flags |= ocNoLE
			o.distNoLE = e.Pos.Dist(s.Pos)
		}
		if e, ok := p.WithLE.StepTally(s.Node, s.Time, s.Pos, transmitted, &sh.withLE); ok {
			o.flags |= ocWithLE
			o.distWithLE = e.Pos.Dist(s.Pos)
			if e.Estimated {
				sh.local.BrokerEstimated++
			}
		}
		if p.direct {
			if p.err == nil {
				p.err = p.replay(s, &o)
			}
			continue
		}
		sh.outcomes = append(sh.outcomes, o) //adf:allow hotpath — reused buffer; capacity settles at the member count
	}
	sh.endNS = obs.StageStart()
}

// merge is the deterministic fold: for every shard in order it replays
// the buffered observer events, if any (per node: offered, transmitted,
// no-LE error, with-LE error), folds the broker tallies and the observability
// batch, then applies the migration handoffs in the node order the
// prepass recorded them. No step here depends on worker scheduling, so
// the merged state is identical at every worker count.
func (p *Pipeline) merge() error {
	for _, sh := range p.shards {
		for k := range sh.outcomes {
			o := &sh.outcomes[k]
			if err := p.replay(&p.samples[o.idx], o); err != nil {
				return err
			}
		}
		p.NoLE.AddTally(&sh.noLE)
		p.WithLE.AddTally(&sh.withLE)
		p.master.Merge(&sh.local)
		if p.obsOn {
			for k := range sh.lus {
				l := &sh.lus[k]
				obs.Events.Emit("lu",
					obs.F("t", l.t), obs.F("node", float64(l.node)),
					obs.F("sent", b2f(l.sent)), obs.F("dist", l.dist), obs.F("dth", l.dth))
			}
			obs.RecordShardSpan(p.tid, sh.idx, sh.shardH, sh.startNS, sh.endNS)
		}
	}
	p.applyHandoffs()
	if p.obsOn {
		p.flushRegions()
	}
	return nil
}

// replay fires the observer events of one node's outcome o for sample s
// and, while obs is on, counts them against the region whose gateway
// collected the LU.
func (p *Pipeline) replay(s *Sample, o *outcome) error {
	if p.obsOn {
		r := &p.regions[p.slot[o.idx]]
		if o.flags&ocOffered != 0 {
			r.offered++
		}
		if o.flags&ocTransmitted != 0 {
			r.sent++
		}
	}
	if o.flags&ocOffered != 0 {
		if err := p.Observers.OnOffered(*s); err != nil {
			return err
		}
	}
	if o.flags&ocTransmitted != 0 {
		if err := p.Observers.OnTransmitted(*s); err != nil {
			return err
		}
	}
	if o.flags&ocNoLE != 0 {
		if err := p.Observers.OnError(*s, NoLE, o.distNoLE); err != nil {
			return err
		}
	}
	if o.flags&ocWithLE != 0 {
		if err := p.Observers.OnError(*s, WithLE, o.distWithLE); err != nil {
			return err
		}
	}
	return nil
}

// flushRegions publishes the per-region LU tallies and shard sizes.
func (p *Pipeline) flushRegions() {
	for i := range p.regions {
		r := &p.regions[i]
		if r.offered > 0 {
			r.offeredC.Add(r.offered)
			r.offered = 0
		}
		if r.sent > 0 {
			r.sentC.Add(r.sent)
			r.sent = 0
		}
	}
	for _, sh := range p.shards {
		sh.nodesG.Set(int64(len(sh.members)))
	}
}

// applyHandoffs moves each migrating node to its new region shard: the
// node's samples are collected by the destination region's gateway from
// now on, and its filter state transfers through filter.NodeStateMover
// when both instances support it (the ADF moves the classifier window
// and re-assigns the cluster membership), otherwise the source forgets
// and the destination re-learns. Membership lists stay ascending.
func (p *Pipeline) applyHandoffs() {
	for _, h := range p.handoffs {
		src, dst := p.shards[h.from], p.shards[h.to]
		nodeID := p.samples[h.node].Node
		if mv, ok := src.filt.(filter.NodeStateMover); !ok || !mv.MoveNodeTo(dst.filt, nodeID) {
			src.filt.Forget(nodeID)
		}
		if p.ChurnK != nil {
			p.ChurnK.Move(nodeID, h.from, h.to)
		}
		src.members = removeSorted(src.members, h.node)
		dst.members = insertSorted(dst.members, h.node)
		// In the region shape a shard's index is its region's slot.
		p.owner[h.node], p.slot[h.node] = h.to, h.to
	}
}

// removeSorted deletes v from an ascending slice, preserving order.
func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// insertSorted inserts v into an ascending slice, preserving order.
func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// b2f renders a bool as a numeric event field.
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// ShardCount returns the number of shards (0 before the first tick
// builds them): 1 in the global shape, one per region otherwise.
func (p *Pipeline) ShardCount() int { return len(p.shards) }

// ShardFilters returns each shard's filter instance in shard order
// (empty before the first tick builds the shards), so callers can fold
// per-shard filter summaries — e.g. total ADF cluster counts — after a
// run.
func (p *Pipeline) ShardFilters() []filter.Filter {
	out := make([]filter.Filter, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh.filt
	}
	return out
}

// OwnerOf returns the label of the shard currently owning the node at
// slice index i — its region ID in the region shape — for tests
// asserting migration handoff.
func (p *Pipeline) OwnerOf(i int) campus.RegionID {
	return campus.RegionID(p.shards[p.owner[i]].label)
}

// workerPool is the pipeline's persistent worker pool for the advance
// and shard stages: goroutines are started once and fed task indices
// through a channel, so a steady-state dispatch allocates nothing.
type workerPool struct {
	work chan int
	wg   sync.WaitGroup
	// task is the current dispatch's body, published before the sends
	// and read by workers only between receiving an index and wg.Done.
	task func(int)
}

// newWorkerPool starts the pool's worker goroutines. Tasks mutate only
// state their index owns — a node range's samples, a shard's context —
// and every cross-task effect is merged in stable order afterwards, so
// results are bit-for-bit identical to the inline run.
//
//adf:owns queue:work — the workers launched here are the work channel's only receivers
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{work: make(chan int)}
	for w := 0; w < workers; w++ {
		go func() {
			for k := range p.work {
				p.task(k)
				p.wg.Done()
			}
		}()
	}
	return p
}

// dispatch runs task(k) for every k in [0, n) on the workers and blocks
// until all complete.
func (p *workerPool) dispatch(n int, task func(int)) {
	p.task = task
	p.wg.Add(n)
	for k := 0; k < n; k++ {
		p.work <- k
	}
	p.wg.Wait()
}

func (p *workerPool) close() { close(p.work) }
