package broker

import (
	"testing"

	"github.com/mobilegrid/adf/internal/estimate"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

func brownFactory(t *testing.T) estimate.Factory {
	t.Helper()
	return func() estimate.PositionEstimator {
		le, err := estimate.NewBrownLE(0.5)
		if err != nil {
			t.Fatal(err)
		}
		return le
	}
}

func TestReceiveAndLocation(t *testing.T) {
	b := New(nil)
	if _, ok := b.Location(1); ok {
		t.Error("Location before any report")
	}
	b.ReceiveLU(1, 10, geo.Point{X: 5})
	e, ok := b.Location(1)
	if !ok {
		t.Fatal("Location not found after report")
	}
	if e.Pos != (geo.Point{X: 5}) || e.Time != 10 || e.Estimated {
		t.Errorf("entry = %+v", e)
	}
	if b.NodeCount() != 1 {
		t.Errorf("NodeCount = %d", b.NodeCount())
	}
	if b.ReceivedLUs() != 1 {
		t.Errorf("ReceivedLUs = %d", b.ReceivedLUs())
	}
}

func TestMissLUWithoutLEKeepsLastReport(t *testing.T) {
	b := New(nil) // nil factory = "without LE" baseline
	b.ReceiveLU(1, 0, geo.Point{X: 5})
	e, err := b.MissLU(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	// LastKnown is Ready after one observation, so the refresh is labelled
	// estimated but stays at the last reported point.
	if e.Pos != (geo.Point{X: 5}) {
		t.Errorf("believed = %v, want last report", e.Pos)
	}
}

func TestMissLUWithBrownExtrapolates(t *testing.T) {
	b := New(brownFactory(t))
	// Constant eastward 2 m/s, reported every second for 6 s.
	for i := 0; i <= 6; i++ {
		b.ReceiveLU(1, float64(i), geo.Point{X: 2 * float64(i)})
	}
	e, err := b.MissLU(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Estimated {
		t.Error("refresh not marked estimated")
	}
	want := geo.Point{X: 18}
	if e.Pos.Dist(want) > 0.2 {
		t.Errorf("estimated = %v, want ~%v", e.Pos, want)
	}
	if b.EstimatedLUs() != 1 {
		t.Errorf("EstimatedLUs = %d", b.EstimatedLUs())
	}
	// The believed entry is refreshed in the DB too.
	got, _ := b.Location(1)
	if got != e {
		t.Errorf("Location = %+v, want %+v", got, e)
	}
}

func TestMissLUBeforeEstimatorReady(t *testing.T) {
	b := New(brownFactory(t))
	b.ReceiveLU(1, 0, geo.Point{X: 5})
	e, err := b.MissLU(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.Estimated {
		t.Error("single-report node marked estimated")
	}
	if e.Pos != (geo.Point{X: 5}) {
		t.Errorf("believed = %v", e.Pos)
	}
}

func TestMissLUUnknownNode(t *testing.T) {
	b := New(nil)
	if _, err := b.MissLU(42, 1); err == nil {
		t.Error("MissLU for unknown node did not error")
	}
}

func TestLocationsSnapshot(t *testing.T) {
	b := New(nil)
	b.ReceiveLU(3, 1, geo.Point{X: 3})
	b.ReceiveLU(1, 1, geo.Point{X: 1})
	b.ReceiveLU(2, 1, geo.Point{X: 2})
	locs := b.Locations()
	if len(locs) != 3 {
		t.Fatalf("Locations = %d entries", len(locs))
	}
	for i, want := range []int{1, 2, 3} {
		if locs[i].Node != want {
			t.Errorf("Locations[%d].Node = %d, want %d (order)", i, locs[i].Node, want)
		}
		if locs[i].Pos.X != float64(want) {
			t.Errorf("Locations[%d].Pos = %v", i, locs[i].Pos)
		}
	}
}

func TestForget(t *testing.T) {
	b := New(nil)
	b.ReceiveLU(1, 1, geo.Point{})
	b.Forget(1)
	if _, ok := b.Location(1); ok {
		t.Error("Location after Forget")
	}
	if b.NodeCount() != 0 {
		t.Errorf("NodeCount = %d", b.NodeCount())
	}
}

func TestEstimatorIsolationBetweenNodes(t *testing.T) {
	b := New(brownFactory(t))
	// Node 1 moves east, node 2 moves north; forecasts must not mix.
	for i := 0; i <= 6; i++ {
		b.ReceiveLU(1, float64(i), geo.Point{X: float64(i)})
		b.ReceiveLU(2, float64(i), geo.Point{Y: float64(i)})
	}
	e1, err := b.MissLU(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := b.MissLU(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Pos.Y > 0.5 || e1.Pos.X < 7 {
		t.Errorf("node 1 forecast contaminated: %v", e1.Pos)
	}
	if e2.Pos.X > 0.5 || e2.Pos.Y < 7 {
		t.Errorf("node 2 forecast contaminated: %v", e2.Pos)
	}
}

// TestNoLEMatchesLastKnown holds the estimator-free "without LE" broker
// to a broker running estimate.LastKnown: over a seeded sequence of
// Steps (received and missed), MissLUs and Forgets, every returned
// entry, the location DB and both counters are identical.
func TestNoLEMatchesLastKnown(t *testing.T) {
	noLE := New(nil)
	lastKnown := New(func() estimate.PositionEstimator { return estimate.NewLastKnown() })
	rng := sim.NewRNG(11)
	const nodes = 12
	for i := 0; i < 5000; i++ {
		node := rng.Intn(nodes)
		tm := float64(i / nodes)
		p := geo.Point{X: rng.Uniform(-50, 50), Y: rng.Uniform(-50, 50)}
		switch r := rng.Float64(); {
		case r < 0.02:
			noLE.Forget(node)
			lastKnown.Forget(node)
		case r < 0.1:
			got, gerr := noLE.MissLU(node, tm)
			want, werr := lastKnown.MissLU(node, tm)
			if got != want || (gerr == nil) != (werr == nil) {
				t.Fatalf("op %d MissLU(%d) = %+v, %v; want %+v, %v", i, node, got, gerr, want, werr)
			}
		default:
			received := r < 0.55
			got, gok := noLE.Step(node, tm, p, received)
			want, wok := lastKnown.Step(node, tm, p, received)
			if got != want || gok != wok {
				t.Fatalf("op %d Step(%d, received %v) = %+v, %v; want %+v, %v", i, node, received, got, gok, want, wok)
			}
		}
	}
	if noLE.ReceivedLUs() != lastKnown.ReceivedLUs() || noLE.EstimatedLUs() != lastKnown.EstimatedLUs() {
		t.Errorf("counters received/estimated = %d/%d, want %d/%d",
			noLE.ReceivedLUs(), noLE.EstimatedLUs(), lastKnown.ReceivedLUs(), lastKnown.EstimatedLUs())
	}
	if noLE.EstimatedLUs() == 0 {
		t.Error("sequence never refreshed a belief")
	}
	got, want := noLE.Locations(), lastKnown.Locations()
	if len(got) != len(want) {
		t.Fatalf("Locations = %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("Locations[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestNoLERecordBirthAllocs pins the churn rejoin cost at the no-LE
// broker: a record born inside the preallocated window allocates
// nothing, because the broker keeps no per-node estimator.
func TestNoLERecordBirthAllocs(t *testing.T) {
	b := New(nil)
	b.Preallocate(8)
	tm := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		tm++
		b.Step(5, tm, geo.Point{X: tm}, true)
		b.Forget(5)
	})
	if allocs != 0 {
		t.Errorf("no-LE record birth allocates %v objects, want 0", allocs)
	}
}
