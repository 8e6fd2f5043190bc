// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed measuring time, checks that the outputs are
// correct, and prints every metric by name with its unit. With -trace 0
// it reports the end-to-end metrics of an untraced run; with -trace 1 it
// reports the per-layer metrics of a traced run plus the layer replay.
// The last line of standard output is the machine-readable result.
//
//	bash perfbench/run.sh --workload paper-140 --seed 1 --seconds 40 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"node_ticks_per_s", "1/s"},
	{"tick_p50_ms", "ms"},
	{"tick_p99_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"lu_reduction_pct", "%"},
	{"rmse_with_le_m", "m"},
	{"lu_per_s", "1/s"},
	{"lu_latency_p50_ms", "ms"},
	{"lu_latency_p99_ms", "ms"},
	{"wire_bytes_per_lu", "B"},
}

// perLayer are the metrics of a traced run and its layer replay.
var perLayer = []metricDef{
	{"mobility.advance.ns_per_node", "ns"},
	{"mobility.advance.allocs_per_node", "count"},
	{"gateway.collect.ns_per_sample", "ns"},
	{"gateway.collect.allocs_per_sample", "count"},
	{"gateway.delivered_ratio", "ratio"},
	{"core.offer.ns_per_lu", "ns"},
	{"core.offer.p99_us", "us"},
	{"core.offer.replay_ns_per_lu", "ns"},
	{"core.offer.allocs_per_lu", "count"},
	{"core.transmit_ratio", "ratio"},
	{"core.classify.ns_per_obs", "ns"},
	{"core.classify.allocs_per_obs", "count"},
	{"cluster.assign.ns_per_op", "ns"},
	{"cluster.assign.allocs_per_op", "count"},
	{"cluster.rebuild.ms_per_op", "ms"},
	{"cluster.count", "count"},
	{"broker.nole.ns_per_step", "ns"},
	{"broker.nole.allocs_per_step", "count"},
	{"broker.withle.ns_per_step", "ns"},
	{"broker.withle.allocs_per_step", "count"},
	{"broker.estimated_ratio", "ratio"},
	{"engine.tick.self_ns_per_node", "ns"},
	{"engine.observers.ns_per_call", "ns"},
	{"engine.forget.ns_per_event", "ns"},
	{"engine.forget.allocs_per_event", "count"},
	{"engine.churn_events_per_tick", "count"},
	{"engine.steady_allocs_per_tick", "count"},
	{"wire.encode.ns_per_lu", "ns"},
	{"wire.encode.allocs_per_lu", "count"},
	{"wire.decode.ns_per_lu", "ns"},
	{"wire.decode.allocs_per_lu", "count"},
	{"wire.write_syscalls_per_lu", "count"},
	{"hla.send.ns_per_lu", "ns"},
	{"hla.sender_grant_wait_ms", "ms"},
	{"hla.receiver_advance_ms", "ms"},
	{"hla.allocs_per_lu", "count"},
	{"trace.coverage_pct", "%"},
	{"trace.overhead_pct", "%"},
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// run is one invocation: a workload, a seed, a measuring time and a
// trace mode, plus everything it measured and checked.
type run struct {
	w        workload
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// fault, set only by tests, corrupts or drops LUs the RTI delivers.
	fault func(seq int64, r *luRec) bool

	heap peakHeap
	// start and steal0 are the wall clock and the host's steal time when
	// the run began.
	start, steal0 int64
	res           result
	checks        []checkResult
	details       map[string]any
}

func newRun(w workload, seed int64, seconds float64, trace bool) *run {
	return &run{
		w: w, seed: seed, seconds: seconds, trace: trace,
		heap:    newPeakHeap(),
		res:     result{Metrics: map[string]metricVal{}},
		details: map[string]any{},
	}
}

// budgetNS is the measuring time in nanoseconds.
func (r *run) budgetNS() int64 { return int64(r.seconds * 1e9) }

// tracedNS is how long a traced run alternates traced and untraced
// blocks: half the measuring time, since the reference run, the traced
// prefix and the layer replay come on top of it.
func (r *run) tracedNS() int64 { return r.budgetNS() / 2 }

// ops counts operations the workload attempted and how many failed.
func (r *run) ops(attempted, failed int64) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// check records one correctness check as one operation.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	r.ops(1, 0)
	if !ok {
		r.res.Failed++
	}
}

func (r *run) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.res.Metrics[name] = metricVal{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}

func (r *run) execute() error {
	r.start, r.steal0 = nanotime(), int64(stealTicks())
	var err error
	if r.trace {
		err = r.tracedSim()
	} else {
		err = r.e2eSim()
	}
	if err != nil {
		return err
	}
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	missing := 0
	for _, d := range want {
		if v, ok := r.res.Metrics[d.name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing++
		}
	}
	r.check("every metric measured", missing == 0, "%d of %d metrics missing or not finite", missing, len(want))
	r.res.Correct = r.res.Failed == 0
	return nil
}

// report prints the human-readable summary, the detail line and, last,
// the result line.
func (r *run) report(out io.Writer) error {
	host := readHost(r.seed, r.heap.mb())
	// /proc/stat counts in USER_HZ, 100 per second on Linux.
	wall := float64(nanotime()-r.start) / 1e9 * float64(host.NProc)
	host.StealPct = 100 * ratio(float64(int64(stealTicks())-r.steal0)/100, wall)
	mode := "end-to-end (tracing off)"
	if r.trace {
		mode = "per-layer (traced run + layer replay)"
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g: %s\n", r.w.name, r.seed, r.seconds, mode)
	fmt.Fprintf(out, "host: %s, nproc=%d GOMAXPROCS=%d L2=%dKiB L3=%dKiB %s; peak heap %.1f MB = %.1f×L2, %.3f×L3; steal %.2f%%\n",
		host.CPU, host.NProc, host.GOMAXPROCS, host.L2Bytes>>10, host.L3Bytes>>10, host.GoVersion,
		host.PeakHeapMB, host.HeapPerL2, host.HeapPerL3, host.StealPct)
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, c := range r.checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(out, "  check %s %s: %s\n", status, c.Name, c.Detail)
	}
	detail, err := json.Marshal(map[string]any{
		"workload": r.w.name, "trace": r.trace, "host": host, "checks": r.checks, "details": r.details,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "detail %s\n", detail)
	line, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func (r *run) tracePath() string {
	return filepath.Join(r.traceDir, fmt.Sprintf("%s-seed%d.trace.json", r.w.name, r.seed))
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload: paper-140 or campus-churn-50k")
		seed     = fs.Int64("seed", 1, "workload seed")
		seconds  = fs.Float64("seconds", 40, "measuring time per run, in seconds")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
		traceDir = fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	r := newRun(w, *seed, *seconds, *trace == 1)
	r.traceDir = *traceDir
	if err := r.execute(); err != nil {
		return err
	}
	return r.report(out)
}
