package core

import (
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/cluster"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

func mustClassifier(t *testing.T, cfg ClassifierConfig) *Classifier {
	t.Helper()
	c, err := NewClassifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClassifierConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*ClassifierConfig)
		wantErr bool
	}{
		{"default", func(*ClassifierConfig) {}, false},
		{"window too small", func(c *ClassifierConfig) { c.WindowSize = 1 }, true},
		{"zero walk speed", func(c *ClassifierConfig) { c.WalkSpeed = 0 }, true},
		{"negative stop speed", func(c *ClassifierConfig) { c.StopSpeed = -1 }, true},
		{"stop above walk", func(c *ClassifierConfig) { c.StopSpeed = 3 }, true},
		{"negative speed stability", func(c *ClassifierConfig) { c.SpeedStability = -1 }, true},
		{"heading stability above 1", func(c *ClassifierConfig) { c.HeadingStability = 1.5 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultClassifierConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func feed(c *Classifier, positions []geo.Point) {
	for i, p := range positions {
		c.Observe(float64(i), p)
	}
}

// walk generates n positions starting at origin with per-step displacement
// given by step(i).
func walk(n int, step func(i int) geo.Vec) []geo.Point {
	pts := make([]geo.Point, n)
	p := geo.Point{}
	for i := 0; i < n; i++ {
		pts[i] = p
		p = p.Add(step(i))
	}
	return pts
}

func TestPatternUnknownBeforeWindowFull(t *testing.T) {
	c := mustClassifier(t, DefaultClassifierConfig())
	for i := 0; i < DefaultClassifierConfig().WindowSize-1; i++ {
		c.Observe(float64(i), geo.Point{X: float64(i)})
		if got := c.Pattern(); got != PatternUnknown {
			t.Fatalf("Pattern after %d samples = %v, want unknown", i+1, got)
		}
	}
	if c.Ready() {
		t.Error("Ready before window full")
	}
	c.Observe(100, geo.Point{X: 100})
	if !c.Ready() {
		t.Error("not Ready after window full")
	}
}

func TestClassifyStopState(t *testing.T) {
	c := mustClassifier(t, DefaultClassifierConfig())
	feed(c, walk(10, func(int) geo.Vec { return geo.Vec{} }))
	if got := c.Pattern(); got != PatternStop {
		t.Errorf("Pattern = %v, want SS", got)
	}
	if got := c.MeanSpeed(); got != 0 {
		t.Errorf("MeanSpeed = %v, want 0", got)
	}
}

func TestClassifyLinearWalking(t *testing.T) {
	// Constant 1.2 m/s due north: below V_walk but stable → LMS.
	c := mustClassifier(t, DefaultClassifierConfig())
	feed(c, walk(10, func(int) geo.Vec { return geo.Vec{DY: 1.2} }))
	if got := c.Pattern(); got != PatternLinear {
		t.Errorf("Pattern = %v, want LMS", got)
	}
	if got := c.MeanSpeed(); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("MeanSpeed = %v, want 1.2", got)
	}
	if got := c.MeanHeading(); geo.AngleDiff(got, math.Pi/2) > 1e-9 {
		t.Errorf("MeanHeading = %v, want π/2", got)
	}
}

func TestClassifyLinearVehicle(t *testing.T) {
	// 8 m/s: above V_walk → LMS regardless of stability.
	c := mustClassifier(t, DefaultClassifierConfig())
	rng := sim.NewRNG(3)
	feed(c, walk(10, func(int) geo.Vec {
		return geo.FromHeading(rng.Heading(), 8) // erratic direction, high speed
	}))
	if got := c.Pattern(); got != PatternLinear {
		t.Errorf("Pattern = %v, want LMS (vehicle)", got)
	}
}

func TestClassifyRandomMovement(t *testing.T) {
	// Walking speed with chaotic headings → RMS.
	c := mustClassifier(t, DefaultClassifierConfig())
	rng := sim.NewRNG(7)
	feed(c, walk(10, func(int) geo.Vec {
		return geo.FromHeading(rng.Heading(), 0.8)
	}))
	if got := c.Pattern(); got != PatternRandom {
		t.Errorf("Pattern = %v, want RMS", got)
	}
}

func TestClassifyRandomSpeedFluctuation(t *testing.T) {
	// Stable heading but wildly varying speed → RMS.
	c := mustClassifier(t, DefaultClassifierConfig())
	speeds := []float64{0.1, 1.9, 0.1, 1.9, 0.1, 1.9, 0.1, 1.9, 0.1, 1.9}
	i := 0
	feed(c, walk(10, func(int) geo.Vec {
		v := geo.Vec{DX: speeds[i%len(speeds)]}
		i++
		return v
	}))
	if got := c.Pattern(); got != PatternRandom {
		t.Errorf("Pattern = %v, want RMS (unstable speed)", got)
	}
}

func TestPatternTransition(t *testing.T) {
	// A node that stops: the sliding window forgets the old motion.
	c := mustClassifier(t, DefaultClassifierConfig())
	tm := 0.0
	p := geo.Point{}
	for i := 0; i < 10; i++ {
		c.Observe(tm, p)
		p = p.Add(geo.Vec{DX: 1.2})
		tm++
	}
	if got := c.Pattern(); got != PatternLinear {
		t.Fatalf("initial Pattern = %v, want LMS", got)
	}
	for i := 0; i < 12; i++ {
		c.Observe(tm, p) // stays put
		tm++
	}
	if got := c.Pattern(); got != PatternStop {
		t.Errorf("Pattern after stopping = %v, want SS", got)
	}
}

func TestObserveIgnoresNonAdvancingTime(t *testing.T) {
	c := mustClassifier(t, DefaultClassifierConfig())
	c.Observe(1, geo.Point{})
	c.Observe(1, geo.Point{X: 100}) // ignored
	c.Observe(0.5, geo.Point{X: 50})
	if c.Samples() != 1 {
		t.Errorf("Samples = %d, want 1", c.Samples())
	}
}

func TestFeature(t *testing.T) {
	c := mustClassifier(t, DefaultClassifierConfig())
	feed(c, walk(10, func(int) geo.Vec { return geo.Vec{DX: 2.0} }))
	f := c.Feature()
	if math.Abs(f.Speed-2.0) > 1e-9 {
		t.Errorf("Feature.Speed = %v, want 2.0", f.Speed)
	}
	if geo.AngleDiff(f.Heading, 0) > 1e-9 {
		t.Errorf("Feature.Heading = %v, want 0", f.Heading)
	}
}

func TestMobilityPatternString(t *testing.T) {
	tests := []struct {
		p    MobilityPattern
		want string
	}{
		{PatternStop, "SS"},
		{PatternRandom, "RMS"},
		{PatternLinear, "LMS"},
		{PatternUnknown, "unknown"},
		{MobilityPattern(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.p), got, tt.want)
		}
	}
}

func TestWindowSlides(t *testing.T) {
	cfg := DefaultClassifierConfig()
	c := mustClassifier(t, cfg)
	for i := 0; i < cfg.WindowSize*3; i++ {
		c.Observe(float64(i), geo.Point{X: float64(i)})
	}
	if c.Samples() != cfg.WindowSize {
		t.Errorf("Samples = %d, want %d", c.Samples(), cfg.WindowSize)
	}
}

// refClassifier is the windowed classifier layout the flat Classifier
// replaced, kept as the bit-identity reference: full sample windows of
// times and points, the per-step speeds, and the moving steps' headings
// with their cached cos/sin, each in its own slice, shifted in place.
type refClassifier struct {
	cfg              ClassifierConfig
	times            []float64
	points           []geo.Point
	speeds, headings []float64
	hcos, hsin       []float64
}

func (c *refClassifier) Observe(t float64, p geo.Point) {
	n := len(c.times)
	if n > 0 && t <= c.times[n-1] {
		return
	}
	if n == c.cfg.WindowSize {
		if c.speeds[0] > c.cfg.StopSpeed {
			c.headings = shiftOut(c.headings)
			c.hcos = shiftOut(c.hcos)
			c.hsin = shiftOut(c.hsin)
		}
		c.speeds = shiftOut(c.speeds)
		copy(c.times, c.times[1:])
		c.times[n-1] = t
		copy(c.points, c.points[1:])
		c.points[n-1] = p
	} else {
		c.times = append(c.times, t)
		c.points = append(c.points, p)
	}
	if n := len(c.times); n >= 2 {
		dt := c.times[n-1] - c.times[n-2]
		d := c.points[n-1].Sub(c.points[n-2])
		speed := d.Len() / dt
		c.speeds = append(c.speeds, speed)
		if speed > c.cfg.StopSpeed {
			h := d.Heading()
			c.headings = append(c.headings, h)
			c.hcos = append(c.hcos, math.Cos(h))
			c.hsin = append(c.hsin, math.Sin(h))
		}
	}
}

func (c *refClassifier) Ready() bool        { return len(c.times) >= c.cfg.WindowSize }
func (c *refClassifier) MeanSpeed() float64 { return geo.Mean(c.speeds) }

func (c *refClassifier) headingSums() (sx, sy float64) {
	for _, v := range c.hcos {
		sx += v
	}
	for _, v := range c.hsin {
		sy += v
	}
	return sx, sy
}

func (c *refClassifier) MeanHeading() float64 {
	sx, sy := c.headingSums()
	return geo.CircularMeanFromSums(sx, sy, len(c.headings))
}

func (c *refClassifier) Pattern() MobilityPattern {
	if !c.Ready() {
		return PatternUnknown
	}
	v := c.MeanSpeed()
	switch {
	case v <= c.cfg.StopSpeed:
		return PatternStop
	case v > c.cfg.WalkSpeed:
		return PatternLinear
	default:
		speedStable := geo.StdDev(c.speeds) <= c.cfg.SpeedStability
		sx, sy := c.headingSums()
		headingStable := geo.CircularVarianceFromSums(sx, sy, len(c.headings)) <= c.cfg.HeadingStability
		if speedStable && headingStable {
			return PatternLinear
		}
		return PatternRandom
	}
}

// TestClassifierMatchesWindowedReference feeds seeded traces — walking,
// vehicle and jittery legs, stop steps, sub-StopSpeed creep and
// non-advancing timestamps — to the flat Classifier and the windowed
// reference, and requires bit-identical outputs after every sample at
// window sizes 2, 8 and 16.
func TestClassifierMatchesWindowedReference(t *testing.T) {
	bits := math.Float64bits
	seen := map[MobilityPattern]bool{}
	for _, w := range []int{2, 8, 16} {
		cfg := DefaultClassifierConfig()
		cfg.WindowSize = w
		for seed := int64(1); seed <= 6; seed++ {
			c := mustClassifier(t, cfg)
			ref := &refClassifier{cfg: cfg}
			rng := sim.NewRNG(seed)
			tm, p := 0.0, geo.Point{}
			heading := rng.Heading()
			for i := 0; i < 600; i++ {
				switch r := rng.Float64(); {
				case r < 0.1: // a repeated or earlier timestamp, moved
					stale := tm - rng.Uniform(0, 1)*float64(i%2)
					c.Observe(stale, p.Add(geo.Vec{DX: 1}))
					ref.Observe(stale, p.Add(geo.Vec{DX: 1}))
				case r < 0.3: // stop step
					tm += 1
				case r < 0.4: // creep below StopSpeed
					tm += 1
					p = p.Add(geo.FromHeading(rng.Heading(), cfg.StopSpeed/2))
				case r < 0.7: // steady leg with heading noise
					tm += rng.Uniform(0.5, 2)
					heading += rng.Normal(0, 0.1)
					p = p.Add(geo.FromHeading(heading, rng.Uniform(0.8, 1.6)))
				default: // erratic walker or vehicle
					tm += 1
					heading = rng.Heading()
					p = p.Add(geo.FromHeading(heading, rng.Uniform(0.2, 12)))
				}
				c.Observe(tm, p)
				ref.Observe(tm, p)
				gf, wf := c.Feature(), cluster.Feature{Speed: ref.MeanSpeed(), Heading: ref.MeanHeading()}
				if c.Samples() != len(ref.times) || c.Ready() != ref.Ready() ||
					bits(c.MeanSpeed()) != bits(ref.MeanSpeed()) ||
					bits(c.MeanHeading()) != bits(ref.MeanHeading()) ||
					c.Pattern() != ref.Pattern() ||
					bits(gf.Speed) != bits(wf.Speed) || bits(gf.Heading) != bits(wf.Heading) {
					t.Fatalf("window %d seed %d sample %d: got samples %d ready %v speed %v heading %v pattern %v feature %+v; want %d %v %v %v %v %+v",
						w, seed, i, c.Samples(), c.Ready(), c.MeanSpeed(), c.MeanHeading(), c.Pattern(), gf,
						len(ref.times), ref.Ready(), ref.MeanSpeed(), ref.MeanHeading(), ref.Pattern(), wf)
				}
				seen[c.Pattern()] = true
			}
		}
	}
	for _, p := range []MobilityPattern{PatternStop, PatternRandom, PatternLinear} {
		if !seen[p] {
			t.Errorf("traces never reached pattern %v", p)
		}
	}
}
