package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/mobilegrid/adf/internal/experiment"
)

// short returns a scaled-down copy of a workload, so a test run of it
// takes about a second while still exercising every phase: set-up,
// warmup, steady window, quality prefix, traced blocks and the replay.
func short(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "paper-140":
		w.horizon, w.quality, w.warmup, w.replay, w.block = 150, 150, 30, 120, 150
	case "campus-churn-50k":
		w.perGroup, w.warmup, w.quality, w.setups, w.replay, w.block = 20, 12, 24, 2, 12, 4
	}
	return w
}

// execute runs w and returns the parsed result line and the full output.
// fault, when set, alters or drops LUs the RTI delivers.
func execute(t *testing.T, w workload, trace bool, fault func(int64, *luRec) bool) (result, string) {
	t.Helper()
	r := newRun(w, 1, 0.3, trace)
	r.traceDir = t.TempDir()
	r.fault = fault
	if err := r.execute(); err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	var out bytes.Buffer
	if err := r.report(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return res, out.String()
}

type benchFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the workloads and
// metric tables the command implements.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: file %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: file has %d metrics, code %d", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s %d: file %s [%s], code %s [%s]", kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly in both
// modes: the result must be correct and carry exactly the metrics of its
// mode, each with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			w := short(t, wl.name)
			res, out := execute(t, w, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestInjectedFaultFailsTheCheck drops or corrupts one LU the RTI
// delivers in the traced run's RTI replay; the delivery check must fail.
func TestInjectedFaultFailsTheCheck(t *testing.T) {
	faults := map[string]func(int64, *luRec) bool{
		"dropped LU": func(seq int64, _ *luRec) bool { return seq != 7 },
		"corrupted x": func(seq int64, r *luRec) bool {
			if seq == 11 {
				r.X = math.Nextafter(r.X, math.Inf(1))
			}
			return true
		},
	}
	for name, fault := range faults {
		res, out := execute(t, short(t, "paper-140"), true, fault)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d, want a failed check\n%s", name, res.Correct, res.Failed, out)
		}
		if !strings.Contains(out, "check FAIL replayed LUs delivered exactly once") {
			t.Errorf("%s: delivery check did not fail:\n%s", name, out)
		}
	}
}

// TestWorldMatchesExperimentDefault checks that the benchmark builds the
// same simulation as the experiment package's default run: same offered
// and transmitted LUs, same with-LE error.
func TestWorldMatchesExperimentDefault(t *testing.T) {
	const horizon = 300
	cfg := experiment.DefaultConfig()
	cfg.Duration = horizon
	cfg.DTHFactors = []float64{1.0}
	res, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("paper-140")
	wd, err := buildWorld(w, cfg.Seed, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	defer wd.close()
	for n := 1; n <= horizon; n++ {
		if err := wd.tick(n); err != nil {
			t.Fatal(err)
		}
	}
	q := wd.sink.quality()
	run := res.ADF[0]
	if float64(q.Offered) != run.OfferedPerSecond.Total() || float64(q.Transmitted) != run.TotalLUs() {
		t.Errorf("offered/transmitted %d/%d, experiment %v/%v", q.Offered, q.Transmitted, run.OfferedPerSecond.Total(), run.TotalLUs())
	}
	if want := run.RMSEWithLE.Overall(); math.Abs(q.RMSEWithLE-want) > 1e-9*want {
		t.Errorf("rmse with LE %v, experiment %v", q.RMSEWithLE, want)
	}
}

func TestSamplerIsBoundedAndExact(t *testing.T) {
	s := newSampler(64)
	for i := 1; i <= 1000; i++ {
		s.add(float64(i))
	}
	if s.n != 1000 || len(s.vals) > 64 {
		t.Fatalf("n=%d kept=%d", s.n, len(s.vals))
	}
	for _, v := range s.vals {
		if v != math.Trunc(v) || v < 1 || v > 1000 {
			t.Fatalf("kept value %v was not an input", v)
		}
	}
	d := s.dist()
	if d.P50 < 400 || d.P50 > 600 || d.P99 < 900 {
		t.Errorf("p50=%v p99=%v from a uniform 1..1000", d.P50, d.P99)
	}
}
