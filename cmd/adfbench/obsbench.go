package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"github.com/mobilegrid/adf/internal/experiment"
	"github.com/mobilegrid/adf/internal/obs"
)

// obsBenchPasses is how many alternating passes each setting gets; the
// best (highest ticks/sec) of each side is compared, so transient noise
// — a GC pause, a scheduler hiccup — cannot fake an overhead. Five
// passes keep the small scales (where one tick is tens of microseconds
// and a single preemption moves the ratio by whole points) honest.
const obsBenchPasses = 5

// ObsReport is the -obs-bench output: the cost of the observability
// layer, measured as hot-path throughput with obs disabled versus
// enabled (registry, per-stage spans and histograms live; event log
// off) at each population scale.
type ObsReport struct {
	Meta            RunMeta    `json:"meta"`
	DurationSeconds float64    `json:"duration_seconds"`
	Seed            int64      `json:"seed"`
	PassesPerMode   int        `json:"passes_per_mode"`
	Scales          []ObsScale `json:"scales"`
	// MaxOverheadPercent is the worst per-scale overhead; the obs layer's
	// budget is 5%.
	MaxOverheadPercent float64 `json:"max_overhead_percent"`
}

// ObsScale is one population scale point of the obs overhead benchmark.
type ObsScale struct {
	PerGroup int `json:"per_group"`
	Nodes    int `json:"nodes"`
	// DisabledTicksPerSec and EnabledTicksPerSec are each the best of
	// PassesPerMode alternating passes.
	DisabledTicksPerSec float64 `json:"disabled_ticks_per_sec"`
	EnabledTicksPerSec  float64 `json:"enabled_ticks_per_sec"`
	// OverheadPercent is (disabled - enabled) / disabled × 100; negative
	// values (enabled measured faster) report as 0.
	OverheadPercent float64 `json:"overhead_percent"`
	// AllocsPerTick under each mode: the zero-cost discipline requires the
	// disabled number to stay at the optimized pipeline's floor.
	DisabledAllocsPerTick float64 `json:"disabled_allocs_per_tick"`
	EnabledAllocsPerTick  float64 `json:"enabled_allocs_per_tick"`
}

// runObsBench measures obs-disabled vs obs-enabled throughput at each
// -scales point and writes the JSON report to path. A baseline
// recorded at GOMAXPROCS=1 measures a serialized scheduler, not the
// overhead the budget is about, so the mode refuses to write one unless
// force is set (the refusal names the flag); the report's meta block
// records the GOMAXPROCS it ran at either way. A positive budget fails
// the invocation, after writing the report, if any scale's overhead
// percentage exceeds it — per scale, not just the max, so a small-scale
// breach cannot hide behind a healthy average.
func runObsBench(w io.Writer, cfg experiment.Config, path, scales string, force bool, budget float64) error {
	if runtime.GOMAXPROCS(0) == 1 && !force {
		return fmt.Errorf("obs-bench: refusing to record a baseline at GOMAXPROCS=1 (overhead numbers from a serialized scheduler are not comparable); rerun with -force to record anyway")
	}
	wasEnabled := obs.Enabled()
	defer obs.SetEnabled(wasEnabled)

	report := ObsReport{
		Meta:            runMeta(cfg),
		DurationSeconds: cfg.Duration,
		Seed:            cfg.Seed,
		PassesPerMode:   obsBenchPasses,
	}
	perGroups, err := parseScales(scales)
	if err != nil {
		return err
	}
	var over []string
	for _, pg := range perGroups {
		c := cfg
		c.PerGroup = pg
		s := ObsScale{PerGroup: pg}
		// Alternate disabled/enabled so slow environment drift hits both
		// modes equally.
		for pass := 0; pass < obsBenchPasses; pass++ {
			for _, enabled := range []bool{false, true} {
				obs.SetEnabled(enabled)
				stats, err := c.MeasureHotpath()
				if err != nil {
					return fmt.Errorf("per-group %d: %w", pg, err)
				}
				s.Nodes = stats.Nodes
				if enabled {
					if stats.TicksPerSec > s.EnabledTicksPerSec {
						s.EnabledTicksPerSec = stats.TicksPerSec
						s.EnabledAllocsPerTick = stats.AllocsPerTick
					}
				} else {
					if stats.TicksPerSec > s.DisabledTicksPerSec {
						s.DisabledTicksPerSec = stats.TicksPerSec
						s.DisabledAllocsPerTick = stats.AllocsPerTick
					}
				}
			}
		}
		if s.DisabledTicksPerSec > 0 {
			s.OverheadPercent = (s.DisabledTicksPerSec - s.EnabledTicksPerSec) /
				s.DisabledTicksPerSec * 100
			if s.OverheadPercent < 0 {
				s.OverheadPercent = 0
			}
		}
		if s.OverheadPercent > report.MaxOverheadPercent {
			report.MaxOverheadPercent = s.OverheadPercent
		}
		if budget > 0 && s.OverheadPercent > budget {
			over = append(over, fmt.Sprintf("%d nodes: %.2f%%", s.Nodes, s.OverheadPercent))
		}
		report.Scales = append(report.Scales, s)
		fmt.Fprintf(w, "%5d nodes: disabled %8.1f ticks/sec, enabled %8.1f ticks/sec, overhead %.2f%%\n",
			s.Nodes, s.DisabledTicksPerSec, s.EnabledTicksPerSec, s.OverheadPercent)
	}

	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "wrote %s (max overhead %.2f%%, budget %g%%)\n",
		path, report.MaxOverheadPercent, budget); err != nil {
		return err
	}
	if len(over) > 0 {
		return fmt.Errorf("obs overhead over budget %g%%: %s", budget, strings.Join(over, "; "))
	}
	return nil
}

// writeTrace dumps the span ring and metrics registry as Chrome
// trace_event JSON, loadable in about:tracing.
func writeTrace(w io.Writer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := obs.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	_, err = fmt.Fprintf(w, "wrote %s (%d spans)\n", path, obs.SpanCount())
	return err
}
