package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleAblations(t *testing.T) {
	wants := map[string]string{
		"adf-vs-gdf": "general DF",
		"alpha":      "similarity bound",
		"estimators": "shoot-out",
		"recluster":  "reconstruction interval",
		"smoothing":  "smoothing constant",
		"semantics":  "semantics",
		"outages":    "bursty wireless loss",
		"churn":      "node churn",
	}
	for name, want := range wants {
		var b strings.Builder
		if err := run(&b, []string{"-ablation", name, "-duration", "120"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(b.String(), want) {
			t.Errorf("%s output missing %q:\n%s", name, want, b.String())
		}
	}
}

func TestRunAllAblations(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-duration", "120"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"general DF", "shoot-out", "semantics"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunJSONBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_runner.json")
	var b strings.Builder
	if err := run(&b, []string{"-json", "-json-out", path, "-duration", "60"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "wrote "+path) {
		t.Errorf("summary line missing path:\n%s", b.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report BenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	wantSims := uint64(1 + len(report.DTHFactors))
	for _, pass := range []BenchPass{report.Sequential, report.Parallel} {
		if pass.Simulations != wantSims {
			t.Errorf("workers=%d pass ran %d simulations, want %d",
				pass.Workers, pass.Simulations, wantSims)
		}
		if got := len(pass.Figures); got != 7 {
			t.Errorf("workers=%d pass timed %d figures, want 7", pass.Workers, got)
		}
		// Memoization: only the first figure pays for simulations.
		for i, fig := range pass.Figures {
			if i == 0 && fig.Simulations != wantSims {
				t.Errorf("workers=%d %s ran %d simulations, want %d",
					pass.Workers, fig.Name, fig.Simulations, wantSims)
			}
			if i > 0 && fig.Simulations != 0 {
				t.Errorf("workers=%d %s ran %d simulations, want 0 (memoized)",
					pass.Workers, fig.Name, fig.Simulations)
			}
		}
		if pass.CacheMisses != 1 || pass.CacheHits != 6 {
			t.Errorf("workers=%d cache hits/misses = %d/%d, want 6/1",
				pass.Workers, pass.CacheHits, pass.CacheMisses)
		}
	}
	if report.Sequential.Workers != 1 || report.Parallel.Workers != 0 {
		t.Errorf("pass workers = %d/%d, want 1/0",
			report.Sequential.Workers, report.Parallel.Workers)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-ablation", "nope", "-duration", "60"},
		{"-duration", "-1"},
		{"-factor", "0", "-duration", "60"},
		{"-badflag"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(&b, args); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

// TestHotpathSkipSequential pins the large-scale RNG default: with no
// explicit -rng, sequential measurement stops at the keyed-only cutoff;
// an explicit mode choice is always honored.
func TestHotpathSkipSequential(t *testing.T) {
	const groups = 28 // Table-1 (region, pattern, type) groups per PerGroup unit
	small := 5        // 140 nodes
	big := (hotpathKeyedOnlyNodes + groups - 1) / groups
	cases := []struct {
		name         string
		defaultModes bool
		mode         string
		pg           int
		want         bool
	}{
		{"default sequential small scale runs", true, "sequential", small, false},
		{"default sequential at cutoff skipped", true, "sequential", big, true},
		{"default keyed at cutoff runs", true, "keyed", big, false},
		{"explicit sequential at cutoff runs", false, "sequential", big, false},
		{"just under cutoff runs", true, "sequential", big - 1, false},
	}
	for _, tc := range cases {
		if got := hotpathSkipSequential(tc.defaultModes, tc.mode, tc.pg, groups); got != tc.want {
			t.Errorf("%s: hotpathSkipSequential(%v, %q, %d) = %v, want %v",
				tc.name, tc.defaultModes, tc.mode, tc.pg, got, tc.want)
		}
	}
}

// TestObsBenchHonoursScales checks -obs-bench measures exactly the
// -scales points it is given, not the default scale list.
func TestObsBenchHonoursScales(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_obs.json")
	var b strings.Builder
	args := []string{"-obs-bench", "-obs-out", path, "-scales", "140", "-duration", "30", "-force", "-obs-budget", "0"}
	if err := run(&b, args); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report ObsReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(report.Scales) != 1 || report.Scales[0].Nodes != 140 {
		t.Fatalf("measured scales %+v, want one point of 140 nodes", report.Scales)
	}
}
