package engine

import (
	"testing"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/sanitize"
	"github.com/mobilegrid/adf/internal/sim"
)

// newTestSharded builds a one-per-group campus population behind the
// region-shaped pipeline, mirroring newTestPipeline.
func newTestSharded(t *testing.T, seed int64, dropProb float64, churnProbs [2]float64,
	workers int, newFilter func() (filter.Filter, error)) *Pipeline {
	t.Helper()
	world := campus.New()
	streams := sim.NewStreams(seed)
	nodes, err := node.Population(campus.PopulationN(world, 1), world, streams)
	if err != nil {
		t.Fatal(err)
	}
	net, err := gateway.NewNetwork(world, dropProb, streams)
	if err != nil {
		t.Fatal(err)
	}
	var churn *Churn
	if churnProbs[0] > 0 || churnProbs[1] > 0 {
		churn = NewChurn(churnProbs[0], churnProbs[1], streams.Stream("churn"))
	}
	return &Pipeline{
		Nodes:        nodes,
		Net:          net,
		NewFilter:    newFilter,
		NoLE:         broker.New(nil),
		WithLE:       broker.New(nil),
		Churn:        churn,
		SamplePeriod: 1,
		Workers:      workers,
	}
}

func generalDFFactory() (filter.Filter, error) {
	return filter.NewGeneralDFWithSemantics(2.0, filter.PerStep)
}

func adfFactory() (filter.Filter, error) {
	cfg := core.DefaultConfig()
	cfg.ReclusterInterval = 5
	return core.New(cfg)
}

// newTestShardedKeyed mirrors newTestSharded in the keyed RNG mode:
// keyed gateway drops and the keyed churn timeline, light sequential
// streams for mobility.
func newTestShardedKeyed(t *testing.T, seed int64, dropProb float64, churnProbs [2]float64,
	workers int, newFilter func() (filter.Filter, error)) *Pipeline {
	t.Helper()
	world := campus.New()
	streams := sim.NewLightStreams(seed)
	keyed := sim.NewKeyed(seed)
	nodes, err := node.Population(campus.PopulationN(world, 1), world, streams)
	if err != nil {
		t.Fatal(err)
	}
	net, err := gateway.NewNetworkKeyed(world, dropProb, keyed)
	if err != nil {
		t.Fatal(err)
	}
	var churnK *KeyedChurn
	if churnProbs[0] > 0 || churnProbs[1] > 0 {
		churnK = NewKeyedChurn(churnProbs[0], churnProbs[1], keyed)
	}
	return &Pipeline{
		Nodes:        nodes,
		Net:          net,
		NewFilter:    newFilter,
		NoLE:         broker.New(nil),
		WithLE:       broker.New(nil),
		ChurnK:       churnK,
		SamplePeriod: 1,
		Workers:      workers,
	}
}

// worldDigest folds the state both pipeline shapes share — node
// positions, broker DBs and counters, churn population — so global and
// region runs can be compared even though their full StateDigests
// differ (each folds its own shard labels and membership).
func worldDigest(nodes []*node.Node, noLE, withLE *broker.Broker, churn *Churn) uint64 {
	absent := -1
	if churn != nil {
		absent = churn.AbsentCount()
	}
	return worldDigestAbsent(nodes, noLE, withLE, absent)
}

// worldDigestAbsent is worldDigest with the churn population passed as
// a plain count (absent < 0 skips it), so keyed-churn runs fold the
// same digest shape.
func worldDigestAbsent(nodes []*node.Node, noLE, withLE *broker.Broker, absent int) uint64 {
	d := sanitize.NewDigest()
	for _, n := range nodes {
		d.WriteInt(n.ID())
		pos := n.Pos()
		d.WriteFloat64(pos.X)
		d.WriteFloat64(pos.Y)
	}
	noLE.DigestState(&d)
	withLE.DigestState(&d)
	if absent >= 0 {
		d.WriteInt(absent)
	}
	return d.Sum()
}

// TestShardedMatchesClassicState: for a per-node filter the region
// shape must be bit-identical to the global shape — same node
// positions, same broker beliefs, same counters — tick for tick. Drops
// and churn are on so every stage participates.
func TestShardedMatchesClassicState(t *testing.T) {
	const ticks = 60
	churnProbs := [2]float64{0.02, 0.3}

	classic := newTestSharded(t, 11, 0.3, churnProbs, 0, nil)
	f, err := generalDFFactory()
	if err != nil {
		t.Fatal(err)
	}
	classic.Filter = f
	sharded := newTestSharded(t, 11, 0.3, churnProbs, 1, generalDFFactory)
	defer sharded.Close()

	for tick := 1; tick <= ticks; tick++ {
		now := float64(tick)
		if err := classic.Tick(now); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Tick(now); err != nil {
			t.Fatal(err)
		}
		cd := worldDigest(classic.Nodes, classic.NoLE, classic.WithLE, classic.Churn)
		sd := worldDigest(sharded.Nodes, sharded.NoLE, sharded.WithLE, sharded.Churn)
		if cd != sd {
			t.Fatalf("tick %d: classic digest %x != sharded digest %x", tick, cd, sd)
		}
	}
	if got, want := sharded.NoLE.ReceivedLUs(), classic.NoLE.ReceivedLUs(); got != want {
		t.Errorf("ReceivedLUs = %d, want %d", got, want)
	}
	if got, want := sharded.WithLE.EstimatedLUs(), classic.WithLE.EstimatedLUs(); got != want {
		t.Errorf("EstimatedLUs = %d, want %d", got, want)
	}
}

// TestShardedWorkerDeterminism: the full StateDigest — including every
// shard's ADF clustering — must agree at every worker count, tick for
// tick. This is the core merge-order contract.
func TestShardedWorkerDeterminism(t *testing.T) {
	const ticks = 60
	workerCounts := []int{1, 2, 4, 8}
	var ref []uint64
	for _, w := range workerCounts {
		p := newTestSharded(t, 23, 0.2, [2]float64{0.01, 0.2}, w, adfFactory)
		digests := make([]uint64, 0, ticks)
		for tick := 1; tick <= ticks; tick++ {
			if err := p.Tick(float64(tick)); err != nil {
				t.Fatal(err)
			}
			digests = append(digests, p.StateDigest())
		}
		p.Close()
		if ref == nil {
			ref = digests
			if p.ShardCount() == 0 {
				t.Fatal("no shards built")
			}
			continue
		}
		for i := range ref {
			if digests[i] != ref[i] {
				t.Fatalf("workers=%d: tick %d digest %x != workers=%d digest %x",
					w, i+1, digests[i], workerCounts[0], ref[i])
			}
		}
	}
}

// TestShardedKeyedMatchesClassicState: in the keyed RNG mode the region
// shape must still match the global shape bit for bit, even though the
// churn timeline is partitioned per region there and held in one
// partition by the global shard — keyed draws depend only on the node,
// never on the partition or processing order.
func TestShardedKeyedMatchesClassicState(t *testing.T) {
	const (
		ticks = 60
		seed  = 11
		drop  = 0.3
	)
	churnProbs := [2]float64{0.02, 0.3}

	world := campus.New()
	streams := sim.NewLightStreams(seed)
	keyed := sim.NewKeyed(seed)
	nodes, err := node.Population(campus.PopulationN(world, 1), world, streams)
	if err != nil {
		t.Fatal(err)
	}
	net, err := gateway.NewNetworkKeyed(world, drop, keyed)
	if err != nil {
		t.Fatal(err)
	}
	f, err := generalDFFactory()
	if err != nil {
		t.Fatal(err)
	}
	classic := &Pipeline{
		Nodes:        nodes,
		Net:          net,
		Filter:       f,
		NoLE:         broker.New(nil),
		WithLE:       broker.New(nil),
		ChurnK:       NewKeyedChurn(churnProbs[0], churnProbs[1], keyed),
		SamplePeriod: 1,
		Workers:      2,
	}
	sharded := newTestShardedKeyed(t, seed, drop, churnProbs, 2, generalDFFactory)
	defer sharded.Close()

	for tick := 1; tick <= ticks; tick++ {
		now := float64(tick)
		if err := classic.Tick(now); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Tick(now); err != nil {
			t.Fatal(err)
		}
		cd := worldDigestAbsent(classic.Nodes, classic.NoLE, classic.WithLE, classic.ChurnK.AbsentCount())
		sd := worldDigestAbsent(sharded.Nodes, sharded.NoLE, sharded.WithLE, sharded.ChurnK.AbsentCount())
		if cd != sd {
			t.Fatalf("tick %d: classic keyed digest %x != sharded keyed digest %x", tick, cd, sd)
		}
	}
	if classic.ChurnK.AbsentCount() == 0 {
		t.Error("churn never removed a node; the keyed timeline was not exercised")
	}
	if got, want := sharded.NoLE.ReceivedLUs(), classic.NoLE.ReceivedLUs(); got != want {
		t.Errorf("ReceivedLUs = %d, want %d", got, want)
	}
}

// TestShardedKeyedWorkerDeterminism: keyed-mode digests must agree at
// every worker count, and stay pinned across releases — the keyed PRF
// is a frozen function of (seed, stream, id, tick), so this digest only
// moves when the simulation semantics themselves change. Re-pin
// deliberately if they do.
func TestShardedKeyedWorkerDeterminism(t *testing.T) {
	const (
		ticks = 60
		// Final-tick StateDigest of the seed-23 keyed run below.
		pinnedFinal = uint64(0x1c10c40c62c21fe8)
	)
	workerCounts := []int{1, 2, 4, 8}
	var ref []uint64
	for _, w := range workerCounts {
		p := newTestShardedKeyed(t, 23, 0.2, [2]float64{0.01, 0.2}, w, adfFactory)
		digests := make([]uint64, 0, ticks)
		for tick := 1; tick <= ticks; tick++ {
			if err := p.Tick(float64(tick)); err != nil {
				t.Fatal(err)
			}
			digests = append(digests, p.StateDigest())
		}
		p.Close()
		if ref == nil {
			ref = digests
			continue
		}
		for i := range ref {
			if digests[i] != ref[i] {
				t.Fatalf("workers=%d: tick %d keyed digest %x != workers=%d digest %x",
					w, i+1, digests[i], workerCounts[0], ref[i])
			}
		}
	}
	if got := ref[len(ref)-1]; got != pinnedFinal {
		t.Errorf("final keyed digest %#016x, pinned %#016x (re-pin only on a deliberate semantics change)", got, pinnedFinal)
	}
}

// TestShardedMigration: table-driven cross-shard migrations, including
// on recluster ticks (ReclusterInterval is 5 in adfFactory, so with a
// 1 s sample period reclusters land on every fifth tick). Each case
// asserts digest equality across worker counts — migration handoff is
// applied at merge in prepass order, so worker scheduling must not be
// able to reorder it — and that ownership actually moved.
func TestShardedMigration(t *testing.T) {
	cases := []struct {
		name      string
		migrateAt float64
		target    campus.RegionID
		pick      func(nodeID int) bool
		filters   func() (filter.Filter, error)
	}{
		{
			name:      "adf-on-recluster-tick",
			migrateAt: 10, // recluster cadence tick for ReclusterInterval 5
			target:    campus.RegionID("B1"),
			pick:      func(id int) bool { return id%5 == 0 },
			filters:   adfFactory,
		},
		{
			name:      "adf-mass-migration",
			migrateAt: 7,
			target:    campus.RegionID("R3"),
			pick:      func(id int) bool { return id%2 == 0 },
			filters:   adfFactory,
		},
		{
			name:      "generaldf-forget-fallback-path",
			migrateAt: 15,
			target:    campus.RegionID("B4"),
			pick:      func(id int) bool { return id%3 == 1 },
			filters:   generalDFFactory,
		},
		{
			name:      "unknown-target-ignored",
			migrateAt: 5,
			target:    campus.RegionID("nowhere"),
			pick:      func(id int) bool { return true },
			filters:   adfFactory,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const ticks = 30
			rehome := func(s Sample) campus.RegionID {
				if s.Time >= tc.migrateAt && tc.pick(s.Node) {
					return tc.target
				}
				return s.Region.ID
			}
			var ref []uint64
			var refOwners []campus.RegionID
			for _, w := range []int{1, 4} {
				p := newTestSharded(t, 31, 0.1, [2]float64{0.01, 0.2}, w, tc.filters)
				p.Rehome = rehome
				digests := make([]uint64, 0, ticks)
				for tick := 1; tick <= ticks; tick++ {
					if err := p.Tick(float64(tick)); err != nil {
						t.Fatal(err)
					}
					digests = append(digests, p.StateDigest())
				}
				owners := make([]campus.RegionID, len(p.Nodes))
				for i := range p.Nodes {
					owners[i] = p.OwnerOf(i)
				}
				p.Close()
				if ref == nil {
					ref, refOwners = digests, owners
					continue
				}
				for i := range ref {
					if digests[i] != ref[i] {
						t.Fatalf("workers=4: tick %d digest %x != workers=1 digest %x",
							i+1, digests[i], ref[i])
					}
				}
				for i := range owners {
					if owners[i] != refOwners[i] {
						t.Fatalf("node index %d: owner %s != workers=1 owner %s",
							i, owners[i], refOwners[i])
					}
				}
			}
			// Ownership must have moved for picked nodes (except when the
			// target region does not exist — then it must NOT move).
			p := newTestSharded(t, 31, 0.1, [2]float64{0.01, 0.2}, 1, tc.filters)
			p.Rehome = rehome
			for tick := 1; tick <= ticks; tick++ {
				if err := p.Tick(float64(tick)); err != nil {
					t.Fatal(err)
				}
			}
			defer p.Close()
			_, targetExists := p.shardOf[tc.target]
			for i, n := range p.Nodes {
				if !tc.pick(n.ID()) {
					continue
				}
				home := n.Region().ID
				owner := p.OwnerOf(i)
				if targetExists && owner != tc.target {
					t.Fatalf("node %d (home %s): owner %s, want %s", n.ID(), home, owner, tc.target)
				}
				if !targetExists && owner != home {
					t.Fatalf("node %d: owner %s, want home %s (unknown target must be ignored)",
						n.ID(), owner, home)
				}
			}
		})
	}
}

// TestShardedObserverEvents: the region shape's merge step must replay
// exactly the event multiset the global shape emits.
func TestShardedObserverEvents(t *testing.T) {
	obs := &countingObserver{}
	p := newTestSharded(t, 7, 0, [2]float64{}, 2, func() (filter.Filter, error) {
		return filter.NewIdealLU(), nil
	})
	p.Observers = Observers{obs}
	if err := p.Run(sim.New(), 10); err != nil {
		t.Fatal(err)
	}
	nodes := len(p.Nodes)
	if obs.ticks != 10 {
		t.Errorf("ticks = %d, want 10", obs.ticks)
	}
	if obs.offered != nodes*10 || obs.transmitted != nodes*10 {
		t.Errorf("offered/transmitted = %d/%d, want %d/%d",
			obs.offered, obs.transmitted, nodes*10, nodes*10)
	}
	if obs.errs != 2*nodes*10 {
		t.Errorf("errs = %d, want %d", obs.errs, 2*nodes*10)
	}
	if got := p.NoLE.NodeCount(); got != nodes {
		t.Errorf("broker tracks %d nodes, want %d", got, nodes)
	}
}

func TestShardedValidate(t *testing.T) {
	p := newTestSharded(t, 3, 0, [2]float64{}, 1, generalDFFactory)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid sharded pipeline rejected: %v", err)
	}
	bad := *p
	bad.NewFilter = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil NewFilter accepted")
	}
	bad = *p
	bad.Workers = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative Workers accepted")
	}
	bad = *p
	bad.Nodes = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty population accepted")
	}
}
