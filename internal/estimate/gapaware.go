package estimate

import (
	"fmt"
	"math"

	"github.com/mobilegrid/adf/internal/geo"
)

// GapAwareLE is a location estimator built for distance-filtered update
// streams. Reproducing the paper exposed a selection effect that plain
// trajectory extrapolation (BrownLE) cannot handle: under per-step
// distance filtering, an update is *withheld exactly when the node is
// moving slowly*, so during silence the node's expected speed is the
// below-threshold conditional speed — systematically lower than the speed
// observed across received updates. Extrapolating at the smoothed observed
// speed therefore overshoots and can make the location error worse than no
// estimation at all.
//
// GapAwareLE learns the silence-conditional drift directly. Each received
// update after a gap of g sampling periods contributes one (g, net
// displacement) observation; the expected net displacement is linear in g
// with slope equal to the mean silent-period drift. A recursive
// exponentially weighted least-squares fit of that line yields the slope,
// and during silence of duration d the estimator predicts
//
//	lastReported + slope · d · smoothedHeading
//
// with the heading smoothed on the unit circle exactly as BrownLE does.
// For random movers the net displacement grows sub-linearly in g, the
// fitted slope shrinks, and the prediction correctly stays near the last
// report.
type GapAwareLE struct {
	cfg GapAwareConfig
	// Heading uses trendless single smoothing: a heading trend term only
	// amplifies the overshoot at direction reversals. The smoothers are
	// held by value, so one estimator is one allocation.
	dirCos   Single
	dirSin   Single
	tracker  motionTracker
	nSamples int

	// recent is a fixed ring of the last few observed headings; their mean
	// resultant length gauges how trustworthy directional extrapolation is.
	// A ring (rather than an append/reslice window) keeps Observe
	// allocation-free on the simulator's hot path.
	recent  [headingWindow]float64
	recentN int // headings stored, saturating at headingWindow
	recentI int // next ring write index

	// Exponentially weighted sums of the (gap, net) regression.
	sw, sx, sy, sxx, sxy float64
}

// headingWindow is the number of recent headings the confidence gauge
// considers.
const headingWindow = 6

var _ PositionEstimator = (*GapAwareLE)(nil)

// GapAwareConfig parameterises GapAwareLE.
type GapAwareConfig struct {
	// HeadingAlpha is the smoothing constant of the circular heading
	// smoother, in (0, 1).
	HeadingAlpha float64
	// Lambda is the forgetting factor of the drift regression, in (0, 1].
	// 1 weights the whole history equally.
	Lambda float64
	// MaxHorizon caps the silence duration the estimator will extrapolate
	// over, in seconds. Zero means no cap.
	MaxHorizon float64
}

// DefaultGapAwareConfig returns the configuration used by the experiments.
func DefaultGapAwareConfig() GapAwareConfig {
	return GapAwareConfig{
		HeadingAlpha: 0.5,
		Lambda:       0.98,
		MaxHorizon:   120,
	}
}

// Validate reports configuration errors.
func (c GapAwareConfig) Validate() error {
	if c.HeadingAlpha <= 0 || c.HeadingAlpha >= 1 {
		return fmt.Errorf("estimate: HeadingAlpha %v outside (0, 1)", c.HeadingAlpha)
	}
	if c.Lambda <= 0 || c.Lambda > 1 {
		return fmt.Errorf("estimate: Lambda %v outside (0, 1]", c.Lambda)
	}
	if c.MaxHorizon < 0 {
		return fmt.Errorf("estimate: MaxHorizon %v negative", c.MaxHorizon)
	}
	return nil
}

// NewGapAwareLE returns a gap-aware location estimator.
func NewGapAwareLE(cfg GapAwareConfig) (*GapAwareLE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sm := Single{alpha: cfg.HeadingAlpha}
	return &GapAwareLE{cfg: cfg, dirCos: sm, dirSin: sm}, nil
}

// Observe implements PositionEstimator.
func (e *GapAwareLE) Observe(t float64, p geo.Point) {
	n := e.tracker.n
	lastT, lastP := e.tracker.lastT, e.tracker.lastP
	_, heading, ok := e.tracker.observe(t, p)
	if !ok || n == 0 {
		return
	}
	gap := t - lastT
	net := p.Dist(lastP)

	// Heading on the unit circle.
	e.dirCos.Observe(math.Cos(heading))
	e.dirSin.Observe(math.Sin(heading))
	e.recent[e.recentI] = heading
	e.recentI = (e.recentI + 1) % headingWindow
	if e.recentN < headingWindow {
		e.recentN++
	}

	// Drift regression update.
	l := e.cfg.Lambda
	e.sw = l*e.sw + 1
	e.sx = l*e.sx + gap
	e.sy = l*e.sy + net
	e.sxx = l*e.sxx + gap*gap
	e.sxy = l*e.sxy + gap*net
	e.nSamples++
}

// Ready implements PositionEstimator.
func (e *GapAwareLE) Ready() bool { return e.nSamples >= 2 }

// Slope returns the fitted silent-period drift in metres per second.
func (e *GapAwareLE) Slope() float64 {
	den := e.sw*e.sxx - e.sx*e.sx
	var slope float64
	if math.Abs(den) > 1e-12 {
		slope = (e.sw*e.sxy - e.sx*e.sy) / den
	} else if e.sx > 0 {
		// All gaps identical: fall back to the ratio estimator.
		slope = e.sy / e.sx
	}
	if slope < 0 {
		slope = 0
	}
	return slope
}

// Predict implements PositionEstimator.
func (e *GapAwareLE) Predict(t float64) geo.Point {
	if e.tracker.n == 0 {
		return geo.Point{}
	}
	dt := t - e.tracker.lastT
	if dt <= 0 || e.nSamples == 0 {
		return e.tracker.lastP
	}
	if e.cfg.MaxHorizon > 0 && dt > e.cfg.MaxHorizon {
		dt = e.cfg.MaxHorizon
	}
	heading := math.Atan2(e.dirSin.Level(), e.dirCos.Level())
	return e.tracker.lastP.Add(geo.FromHeading(geo.NormalizeAngle(heading), e.Slope()*dt))
}

// Confidence is the mean resultant length R̄ of the recent observed
// headings, in [0, 1]: 1 for perfectly consistent motion, near 0 for
// erratic motion (or right after a direction reversal). It is exposed as
// a diagnostic; scaling the predicted drift by it was evaluated and
// rejected — it sacrifices more mid-leg accuracy than it saves at
// reversals (see EXPERIMENTS.md).
func (e *GapAwareLE) Confidence() float64 {
	if e.recentN == 0 {
		return 0
	}
	return 1 - geo.CircularVariance(e.recent[:e.recentN])
}
