// Command adfbench runs the design-choice ablations: per-cluster versus
// global DTH sizing, the clustering similarity bound, the estimator
// shoot-out, the reconstruction interval, the LE smoothing constant and
// the distance-comparison semantics and loss models.
//
// Usage:
//
//	adfbench [-ablation all|adf-vs-gdf|alpha|estimators|recluster|smoothing|semantics|outages|churn]
//	         [-duration 600] [-seed 1] [-factor 1.0] [-workers 0] [-mobility-workers 0]
//	         [-shard-workers 0] [-rng sequential|keyed] [-churn leave,rejoin]
//	adfbench -json [-json-out BENCH_runner.json] [-duration 600] [-seed 1]
//	adfbench -hotpath [-hotpath-out BENCH_hotpath.json] [-duration 300] [-seed 1]
//	         [-scales 140,1k,5k,20k,50k] [-rng keyed] [-alloc-budget 2]
//	adfbench -obs-bench [-obs-out BENCH_obs.json] [-duration 300] [-seed 1] [-force]
//	         [-scales 140,1k,5k,20k,50k] [-obs-budget 5]
//	adfbench -regress [-regress-tol 0.25] [-obs-budget 5]
//	         [-hotpath-out BENCH_hotpath.json] [-obs-out BENCH_obs.json]
//	adfbench -sanitize [-duration 120] [-mobility-workers 4]   (requires -tags adfcheck)
//	adfbench -shard-digest [-duration 120] [-rng keyed]        (requires -tags adfcheck)
//	adfbench -trace out.json ...
//	adfbench -cpuprofile cpu.out -memprofile mem.out ...
//
// With -json the ablations are skipped; instead the campaign runner
// itself is benchmarked — every campaign-derived figure regenerated
// sequentially and in parallel from a cold cache — and the wall-clock,
// simulation-count and allocation report is written as JSON.
//
// With -hotpath the per-tick pipeline is benchmarked instead: one full ADF
// run per -scales entry (default 140 through ~50k mobile nodes; "1m" runs
// a million), reporting ticks/sec, ns/tick and allocs/tick per scale under
// each RNG mode — both sequential and keyed unless -rng picks one — with
// speedups against the recorded pre-optimization baselines (use
// -duration 300 -seed 1, the baseline protocol, to get the comparison).
// A positive -alloc-budget fails the run if any scale's steady
// allocs/tick exceeds it; `make bench-smoke` uses this as CI's perf
// regression gate.
//
// With -sanitize (a binary built with -tags adfcheck) a sequential and a
// parallel pipeline run the same scenario in lockstep, every runtime
// invariant of internal/sanitize armed, and the per-tick state digests
// are compared for bit-identity; `make check` runs this as CI's
// sanitizer gate.
//
// With -shard-digest (a binary built with -tags adfcheck) the
// region-sharded pipeline runs the same scenario once per worker count —
// 1 (the sequential sharded reference), 4 and NumCPU — in tick lockstep
// and the per-tick state digests are compared for bit-identity; `make
// check-sharded` runs this as CI's sharded determinism gate.
//
// With -obs-bench the observability layer itself is benchmarked: the
// hot-path throughput is measured with obs disabled and enabled at each
// -scales population and the overhead percentage is written as JSON; any
// scale exceeding -obs-budget (default 5%) fails the run after the
// report is written. Because the overhead claim is about
// concurrent-capable environments, -obs-bench refuses to (re)record a
// baseline at GOMAXPROCS=1 unless -force is given.
//
// With -regress the committed BENCH_hotpath.json and BENCH_obs.json are
// re-measured at their own recorded protocol and the run fails if the
// current tree regresses past the noise-aware tolerance bands:
// throughput below (1 - regress-tol) of baseline (enforced only when
// the host matches the baseline's num_cpu/gomaxprocs, advisory
// otherwise), allocs/tick above the committed numbers plus a small
// absolute slack, or obs overhead above max(budget, committed) plus a
// two-point band; `make bench-regress` runs this as CI's perf gate.
//
// -trace enables observability for whichever mode runs and writes the
// recorded per-tick spans and the metrics registry as Chrome
// trace_event JSON at exit; open it in about:tracing.
//
// -cpuprofile and -memprofile write pprof profiles covering whichever mode
// runs; inspect them with `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/mobilegrid/adf/internal/experiment"
	"github.com/mobilegrid/adf/internal/obs"
)

// parseChurn converts a -churn "leave,rejoin" spec into a ChurnConfig.
func parseChurn(s string) (*experiment.ChurnConfig, error) {
	leaveStr, rejoinStr, ok := strings.Cut(s, ",")
	if !ok {
		return nil, fmt.Errorf("bad -churn %q (want leave,rejoin — e.g. 0.02,0.3)", s)
	}
	leave, err1 := strconv.ParseFloat(strings.TrimSpace(leaveStr), 64)
	rejoin, err2 := strconv.ParseFloat(strings.TrimSpace(rejoinStr), 64)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("bad -churn %q (want leave,rejoin — e.g. 0.02,0.3)", s)
	}
	return &experiment.ChurnConfig{LeaveProb: leave, RejoinProb: rejoin}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adfbench: ")
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// startProfiles starts the requested pprof captures and returns a stop
// function that finalises them. Empty paths disable the corresponding
// profile.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				log.Printf("cpuprofile: %v", err)
			}
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			log.Printf("memprofile: %v", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Printf("memprofile: %v", err)
		}
	}, nil
}

func run(w io.Writer, args []string) (err error) {
	fs := flag.NewFlagSet("adfbench", flag.ContinueOnError)
	var (
		ablation    = fs.String("ablation", "all", "which ablation to run")
		duration    = fs.Float64("duration", 600, "simulated horizon in seconds")
		seed        = fs.Int64("seed", 1, "run seed")
		factor      = fs.Float64("factor", 1.0, "DTH factor the sweeps run at")
		workers     = fs.Int("workers", 0, "worker pool size: 0 = one per CPU, 1 = sequential (never changes results)")
		mobWorkers  = fs.Int("mobility-workers", 0, "mobility-advance goroutines per simulation; results are identical at any count")
		shWorkers   = fs.Int("shard-workers", 0, "region-shard workers per simulation: 0 = classic pipeline, >= 1 = sharded (results identical at any count >= 1)")
		rngMode     = fs.String("rng", "", `RNG stream class: "sequential" (default, the legacy bit-identical streams) or "keyed" (counter-based, order-independent); -hotpath with no -rng measures both`)
		churnSpec   = fs.String("churn", "", `enable node churn as "leave,rejoin" per-tick probabilities (e.g. 0.02,0.3)`)
		scales      = fs.String("scales", defaultHotpathScales, "comma-separated node counts -hotpath and -obs-bench measure (k = thousand, m = million)")
		allocBudget = fs.Float64("alloc-budget", 0, "fail -hotpath if any scale's steady allocs/tick exceeds this (0 = no gate)")
		jsonOut     = fs.Bool("json", false, "benchmark the campaign runner (sequential vs parallel) and write a JSON report instead of running ablations")
		jsonPath    = fs.String("json-out", "BENCH_runner.json", "where -json writes the report")
		hotpath     = fs.Bool("hotpath", false, "benchmark the per-tick pipeline at 140/~1k/~5k nodes and write a JSON report instead of running ablations")
		hotpathPath = fs.String("hotpath-out", "BENCH_hotpath.json", "where -hotpath writes the report")
		obsBench    = fs.Bool("obs-bench", false, "benchmark the observability layer's overhead (disabled vs enabled hot-path throughput) and write a JSON report instead of running ablations")
		obsPath     = fs.String("obs-out", "BENCH_obs.json", "where -obs-bench writes the report")
		obsBudget   = fs.Float64("obs-budget", 5, "fail -obs-bench and -regress if any scale's obs overhead percentage exceeds this (0 = no gate)")
		regress     = fs.Bool("regress", false, "re-measure the committed BENCH_hotpath.json and BENCH_obs.json points and fail on regression (noise-aware; see -regress-tol)")
		regressTol  = fs.Float64("regress-tol", 0.25, "fractional throughput band for -regress: fail below (1-tol) x baseline ticks/sec")
		tracePath   = fs.String("trace", "", "enable observability and write a Chrome trace_event JSON of the run to this file at exit")
		sanCompare  = fs.Bool("sanitize", false, "compare sequential vs parallel per-tick state digests under the adfcheck sanitizer (requires a -tags adfcheck build)")
		shardDigest = fs.Bool("shard-digest", false, "compare the region-sharded pipeline's per-tick state digests at 1, 4 and NumCPU workers (requires a -tags adfcheck build)")
		force       = fs.Bool("force", false, "let -obs-bench write a baseline even at GOMAXPROCS=1")
		cpuprofile  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile  = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *tracePath != "" {
		obs.SetEnabled(true)
		defer func() {
			if werr := writeTrace(w, *tracePath); err == nil {
				err = werr
			}
		}()
	}

	cfg := experiment.DefaultConfig()
	cfg.Duration = *duration
	cfg.Seed = *seed
	cfg.DTHFactors = []float64{*factor}
	cfg.Workers = *workers
	cfg.MobilityWorkers = *mobWorkers
	cfg.ShardWorkers = *shWorkers
	cfg.RNGMode = *rngMode
	if *churnSpec != "" {
		churn, err := parseChurn(*churnSpec)
		if err != nil {
			return err
		}
		cfg.Churn = churn
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	if *sanCompare {
		return runSanitize(w, cfg, *mobWorkers)
	}
	if *shardDigest {
		return runShardDigest(w, cfg)
	}
	if *hotpath {
		return runHotpath(w, cfg, *hotpathPath, *scales, *allocBudget)
	}
	if *obsBench {
		return runObsBench(w, cfg, *obsPath, *scales, *force, *obsBudget)
	}
	if *regress {
		return runRegress(w, *hotpathPath, *obsPath, *regressTol, *obsBudget)
	}
	if *jsonOut {
		// Benchmark the paper's own campaign: the ideal baseline plus the
		// three default DTH factors, not the single-factor ablation config.
		bcfg := experiment.DefaultConfig()
		bcfg.Duration = *duration
		bcfg.Seed = *seed
		bcfg.MobilityWorkers = *mobWorkers
		return runBench(w, bcfg, *jsonPath)
	}

	type runner func() (fmt.Stringer, error)
	runners := map[string]runner{
		"adf-vs-gdf": func() (fmt.Stringer, error) {
			r, err := experiment.RunAblationADFvsGeneralDF(cfg)
			return r.Table(), err
		},
		"alpha": func() (fmt.Stringer, error) {
			r, err := experiment.RunAblationAlphaSweep(cfg, nil)
			return r.Table(), err
		},
		"estimators": func() (fmt.Stringer, error) {
			r, err := experiment.RunAblationEstimators(cfg)
			return r.Table(), err
		},
		"recluster": func() (fmt.Stringer, error) {
			r, err := experiment.RunAblationReclusterInterval(cfg, nil)
			return r.Table(), err
		},
		"smoothing": func() (fmt.Stringer, error) {
			r, err := experiment.RunAblationSmoothing(cfg, nil)
			return r.Table(), err
		},
		"semantics": func() (fmt.Stringer, error) {
			r, err := experiment.RunAblationSemantics(cfg)
			return r.Table(), err
		},
		"outages": func() (fmt.Stringer, error) {
			r, err := experiment.RunAblationOutages(cfg)
			return r.Table(), err
		},
		"churn": func() (fmt.Stringer, error) {
			r, err := experiment.RunAblationChurn(cfg)
			return r.Table(), err
		},
	}
	order := []string{"adf-vs-gdf", "alpha", "estimators", "recluster", "smoothing", "semantics", "outages", "churn"}

	if *ablation == "all" {
		for i, name := range order {
			if i > 0 {
				if _, err := io.WriteString(w, "\n"); err != nil {
					return err
				}
			}
			t, err := runners[name]()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if _, err := io.WriteString(w, t.String()); err != nil {
				return err
			}
		}
		return nil
	}
	r, ok := runners[*ablation]
	if !ok {
		return fmt.Errorf("unknown ablation %q", *ablation)
	}
	t, err := r()
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, t.String())
	return err
}
