// Package core implements the paper's contribution: the mobility-pattern
// classifier of Figure 2 and the Adaptive Distance Filter (ADF) that
// clusters mobile nodes by motion and filters their location updates with
// per-cluster distance thresholds.
package core

import (
	"fmt"
	"math"

	"github.com/mobilegrid/adf/internal/cluster"
	"github.com/mobilegrid/adf/internal/geo"
)

// MobilityPattern is the three-way classification of section 3.1.
type MobilityPattern int

const (
	// PatternUnknown means the classifier has not seen enough samples.
	PatternUnknown MobilityPattern = iota
	// PatternStop is the Stop State (SS): no movement.
	PatternStop
	// PatternRandom is the Random Movement State (RMS).
	PatternRandom
	// PatternLinear is the Linear Movement State (LMS): movement towards a
	// destination.
	PatternLinear
)

// String implements fmt.Stringer.
func (p MobilityPattern) String() string {
	switch p {
	case PatternStop:
		return "SS"
	case PatternRandom:
		return "RMS"
	case PatternLinear:
		return "LMS"
	default:
		return "unknown"
	}
}

// ClassifierConfig tunes the Figure-2 algorithm. The paper's pseudo-code
// leaves "Vmn and Dmn are constant" unquantified; we operationalise it
// with stability bounds over a sliding sample window.
type ClassifierConfig struct {
	// WindowSize is the number of recent position samples considered.
	WindowSize int
	// WalkSpeed is V_walk, the maximum walking speed in m/s. Faster nodes
	// are running or in a vehicle and are classified LMS outright.
	WalkSpeed float64
	// StopSpeed is the mean speed below which a node is in the Stop State.
	StopSpeed float64
	// SpeedStability is the maximum standard deviation of per-step speed
	// (m/s) for the speed to count as "constant".
	SpeedStability float64
	// HeadingStability is the maximum circular variance (0..1) of per-step
	// headings for the direction to count as "constant".
	HeadingStability float64
}

// DefaultClassifierConfig returns the thresholds used by the experiments.
func DefaultClassifierConfig() ClassifierConfig {
	return ClassifierConfig{
		WindowSize:       8,
		WalkSpeed:        2.0,
		StopSpeed:        0.05,
		SpeedStability:   0.5,
		HeadingStability: 0.2,
	}
}

// Validate reports configuration errors.
func (c ClassifierConfig) Validate() error {
	if c.WindowSize < 2 {
		return fmt.Errorf("core: WindowSize must be at least 2, got %d", c.WindowSize)
	}
	if c.WalkSpeed <= 0 {
		return fmt.Errorf("core: WalkSpeed must be positive, got %v", c.WalkSpeed)
	}
	if c.StopSpeed < 0 || c.StopSpeed >= c.WalkSpeed {
		return fmt.Errorf("core: StopSpeed %v outside [0, WalkSpeed)", c.StopSpeed)
	}
	if c.SpeedStability < 0 {
		return fmt.Errorf("core: SpeedStability must be non-negative, got %v", c.SpeedStability)
	}
	if c.HeadingStability < 0 || c.HeadingStability > 1 {
		return fmt.Errorf("core: HeadingStability %v outside [0, 1]", c.HeadingStability)
	}
	return nil
}

// Classifier implements the Figure-2 mobility-pattern classification for
// one mobile node from its raw position samples.
//
// Observe runs once per node per sampling period, so the state is small
// and maintained incrementally. Only the last sample is ever read back,
// so no sample window is kept. The three per-step windows — speed, and
// the cos/sin of each moving step's heading — are cut from one
// 3·(WindowSize−1) buffer; each term is computed once when its step
// enters and shifted in place as it ages, so a steady-state Observe
// neither allocates nor repeats trigonometry.
type Classifier struct {
	cfg ClassifierConfig
	// n is the number of buffered samples, saturating at WindowSize.
	n     int
	lastT float64
	lastP geo.Point
	// speeds holds the window's per-step speeds (n-1 of them). hcos and
	// hsin hold the cos/sin of the moving steps' headings, in step
	// order, so circular statistics never recompute trigonometry.
	speeds, hcos, hsin []float64
}

// NewClassifier returns a classifier for one node.
func NewClassifier(cfg ClassifierConfig) (*Classifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := newClassifier(cfg)
	return &c, nil
}

// newClassifier builds a classifier from a validated configuration with
// one allocation: the shared backing buffer of its three step windows,
// each pre-sized to its WindowSize−1 cap so Observe never grows them.
func newClassifier(cfg ClassifierConfig) Classifier {
	m := cfg.WindowSize - 1
	buf := make([]float64, 3*m)
	return Classifier{
		cfg:    cfg,
		speeds: buf[0:0:m],
		hcos:   buf[m : m : 2*m],
		hsin:   buf[2*m : 2*m : 3*m],
	}
}

// Observe feeds the node's next position sample. Samples with
// non-advancing timestamps are ignored.
func (c *Classifier) Observe(t float64, p geo.Point) {
	prev := c.n
	if prev > 0 && t <= c.lastT {
		return
	}
	if prev == c.cfg.WindowSize {
		// Window full: the oldest sample leaves, and with it the oldest
		// step (and its heading, if that step was moving).
		if c.speeds[0] > c.cfg.StopSpeed {
			c.hcos = shiftOut(c.hcos)
			c.hsin = shiftOut(c.hsin)
		}
		c.speeds = shiftOut(c.speeds)
	} else {
		c.n++
	}
	if prev > 0 {
		// Derive the newly completed step exactly once.
		d := p.Sub(c.lastP)
		speed := d.Len() / (t - c.lastT)
		c.speeds = push(c.speeds, speed)
		if speed > c.cfg.StopSpeed {
			h := d.Heading()
			c.hcos = push(c.hcos, math.Cos(h))
			c.hsin = push(c.hsin, math.Sin(h))
		}
	}
	c.lastT, c.lastP = t, p
}

// shiftOut drops the first element in place, keeping the backing array.
func shiftOut(xs []float64) []float64 {
	copy(xs, xs[1:])
	return xs[:len(xs)-1]
}

// push appends v within xs's capacity, which the window bound guarantees.
func push(xs []float64, v float64) []float64 {
	xs = xs[:len(xs)+1]
	xs[len(xs)-1] = v
	return xs
}

// Ready reports whether enough samples have arrived to classify.
func (c *Classifier) Ready() bool {
	return c.n >= c.cfg.WindowSize
}

// Samples returns the number of buffered samples (at most WindowSize).
func (c *Classifier) Samples() int { return c.n }

// MeanSpeed returns the node's mean speed over the window, V_mn in the
// paper's notation.
func (c *Classifier) MeanSpeed() float64 { return geo.Mean(c.speeds) }

// headingSums returns Σcos and Σsin over the window's moving-step
// headings, from the cached per-step terms, in heading order — the same
// values and summation order a fresh geo.CircularMean pass would use.
func (c *Classifier) headingSums() (sx, sy float64) {
	for _, v := range c.hcos {
		sx += v
	}
	for _, v := range c.hsin {
		sy += v
	}
	return sx, sy
}

// MeanHeading returns the circular mean heading over the window's moving
// steps, D_mn in the paper's notation.
func (c *Classifier) MeanHeading() float64 {
	sx, sy := c.headingSums()
	return geo.CircularMeanFromSums(sx, sy, len(c.hcos))
}

// Feature returns the clustering feature derived from the window.
func (c *Classifier) Feature() cluster.Feature {
	return cluster.Feature{Speed: c.MeanSpeed(), Heading: c.MeanHeading()}
}

// Pattern runs the Figure-2 classification:
//
//	if V_mn == 0                         → Stop
//	else if V_mn > V_walk                → Linear (running or in a vehicle)
//	else if V_mn and D_mn are constant   → Linear (walking to a destination)
//	else                                 → Random
//
// It returns PatternUnknown until the window is full.
func (c *Classifier) Pattern() MobilityPattern {
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
		headingStable := geo.CircularVarianceFromSums(sx, sy, len(c.hcos)) <= c.cfg.HeadingStability
		if speedStable && headingStable {
			return PatternLinear
		}
		return PatternRandom
	}
}
