package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// epoch anchors nanotime; every timing in the benchmark reads the one
// monotonic clock through it, so send and receive stamps taken on
// different goroutines are directly comparable.
var epoch = time.Now() //adf:allow determinism — the benchmark measures wall-clock time

// nanotime returns monotonic nanoseconds since epoch.
func nanotime() int64 {
	return int64(time.Since(epoch)) //adf:allow determinism — the benchmark measures wall-clock time
}

// sampler keeps a bounded systematic subsample of a stream of values:
// every stride-th value, doubling the stride and halving the kept set
// whenever the buffer fills. Memory stays fixed however long a run is,
// so neither the heap nor the figures depend on throughput, and every
// kept value is an exact measurement.
type sampler struct {
	vals   []float64
	stride int
	skip   int
	n      int
}

func newSampler(capacity int) *sampler {
	return &sampler{vals: make([]float64, 0, capacity), stride: 1}
}

func (s *sampler) add(v float64) {
	s.n++
	if s.skip > 0 {
		s.skip--
		return
	}
	if len(s.vals) == cap(s.vals) {
		half := s.vals[:0]
		for i := 0; i < len(s.vals); i += 2 {
			half = append(half, s.vals[i])
		}
		s.vals = half
		s.stride *= 2
	}
	s.vals = append(s.vals, v)
	s.skip = s.stride - 1
}

func (s *sampler) reset() {
	s.vals, s.stride, s.skip, s.n = s.vals[:0], 1, 0, 0
}

// dist summarises a timing distribution the way the benchmark reports
// every timing: median, p99, and the highest of a fixed percentile
// ladder that still has at least ten kept samples beyond it.
type dist struct {
	N       int     `json:"n"`
	Kept    int     `json:"kept"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

func (s *sampler) dist() dist {
	v := append([]float64(nil), s.vals...)
	sort.Float64s(v)
	d := dist{N: s.n, Kept: len(v), P50: quantile(v, 0.5), P99: quantile(v, 0.99)}
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(v))*(1-p/100) >= 10 {
			d.TailPct, d.Tail = p, quantile(v, p/100)
			break
		}
	}
	return d
}

// quantile returns the nearest-rank q-quantile of sorted v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

// chunks splits a run's steady window into chunks — a horizon or a
// slice of the measuring time — and reports each end-to-end rate and
// timing as the median of that chunk's figure over the quieter half of
// the chunks: those whose host steal (time the hypervisor gave this
// guest's CPUs to someone else, read from /proc/stat) is at most the
// median chunk's. Steal comes in bursts and inflates wall-clock figures,
// the tails most; choosing chunks by a quantity the program does not
// influence keeps the figures about the program, and on a host without
// steal every chunk counts.
type chunks struct {
	// ticks and lat hold the open chunk's round times and LU latencies
	// (ms).
	ticks, lat *sampler
	steal0     uint64
	list       []chunk
}

type chunk struct {
	// steal is the host's steal during the chunk, in CPU-seconds per
	// second.
	steal                                          float64
	rate, luRate, tickP50, tickP99, latP50, latP99 float64
}

func newChunks() *chunks {
	return &chunks{ticks: newSampler(1 << 12), lat: newSampler(1 << 12)}
}

// begin opens a chunk.
func (c *chunks) begin() {
	c.ticks.reset()
	c.lat.reset()
	c.steal0 = stealTicks()
}

// end closes the open chunk, which did nodeTicks node-ticks and
// delivered lus LUs in ns nanoseconds.
func (c *chunks) end(ns, nodeTicks, lus int64) {
	secs := float64(ns) / 1e9
	td, ld := c.ticks.dist(), c.lat.dist()
	c.list = append(c.list, chunk{
		// /proc/stat counts in USER_HZ, 100 per second on Linux.
		steal:   float64(stealTicks()-c.steal0) / 100 / secs,
		rate:    float64(nodeTicks) / secs,
		luRate:  float64(lus) / secs,
		tickP50: td.P50, tickP99: td.P99, latP50: ld.P50, latP99: ld.P99,
	})
}

// set reports the chunked end-to-end figures over the quiet chunks:
// those with at most the median chunk's steal.
func (c *chunks) set(r *run) {
	steals := make([]float64, len(c.list))
	for i, k := range c.list {
		steals[i] = k.steal
	}
	limit := median(steals)
	var q []chunk
	for _, k := range c.list {
		if k.steal <= limit {
			q = append(q, k)
		}
	}
	of := func(f func(chunk) float64) float64 {
		v := make([]float64, len(q))
		for i, k := range q {
			v[i] = f(k)
		}
		return median(v)
	}
	r.set("node_ticks_per_s", of(func(k chunk) float64 { return k.rate }))
	r.set("tick_p50_ms", of(func(k chunk) float64 { return k.tickP50 }))
	r.set("tick_p99_ms", of(func(k chunk) float64 { return k.tickP99 }))
	r.set("lu_per_s", of(func(k chunk) float64 { return k.luRate }))
	r.set("lu_latency_p50_ms", of(func(k chunk) float64 { return k.latP50 }))
	r.set("lu_latency_p99_ms", of(func(k chunk) float64 { return k.latP99 }))
	r.details["chunks"] = map[string]int{"all": len(c.list), "quiet": len(q)}
	r.details["chunk_steal"] = of(func(k chunk) float64 { return k.steal })
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakHeap tracks the peak of the live heap as of the last GC, read
// without stopping the world.
type peakHeap struct {
	s    [1]metrics.Sample
	peak uint64
}

func newPeakHeap() peakHeap {
	var p peakHeap
	p.s[0].Name = "/gc/heap/live:bytes"
	return p
}

func (p *peakHeap) sample() {
	metrics.Read(p.s[:])
	if live := p.s[0].Value.Uint64(); live > p.peak {
		p.peak = live
	}
}

func (p *peakHeap) mb() float64 { return float64(p.peak) / (1 << 20) }

// procIO is the write side of /proc/self/io: bytes handed to write
// syscalls (sockets included) and the number of those syscalls.
type procIO struct {
	wchar, syscw uint64
}

func readProcIO() (procIO, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}, fmt.Errorf("read process I/O counters: %w", err)
	}
	defer func() { _ = f.Close() }()
	var io procIO
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "wchar":
			io.wchar = n
		case "syscw":
			io.syscw = n
		}
	}
	return io, sc.Err()
}

// stealTicks returns the host's cumulative steal time in clock ticks
// (the eighth field of the cpu line of /proc/stat): time a virtual CPU
// was runnable but the hypervisor ran something else.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseUint(f[8], 10, 64) // a malformed field reads as no steal
	return n
}

// hostInfo records where a result was measured, so a figure taken on
// another host is visibly not comparable.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	L2Bytes    int64   `json:"l2_bytes"`
	L3Bytes    int64   `json:"l3_bytes"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	PeakHeapMB float64 `json:"peak_heap_mb"`
	HeapPerL2  float64 `json:"peak_heap_per_l2"`
	HeapPerL3  float64 `json:"peak_heap_per_l3"`
	// StealPct is the hypervisor's steal time over the run, as a share
	// of the run's wall time across all CPUs: a noise estimate.
	StealPct float64 `json:"steal_pct"`
}

func readHost(seed int64, peakHeapMB float64) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		PeakHeapMB: peakHeapMB,
	}
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		size, err := os.ReadFile(dir + "size")
		if err != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			h.L2Bytes = parseCacheSize(string(size))
		case "3":
			h.L3Bytes = parseCacheSize(string(size))
		}
	}
	if h.L2Bytes > 0 {
		h.HeapPerL2 = peakHeapMB * (1 << 20) / float64(h.L2Bytes)
	}
	if h.L3Bytes > 0 {
		h.HeapPerL3 = peakHeapMB * (1 << 20) / float64(h.L3Bytes)
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// parseCacheSize reads sysfs cache sizes such as "2048K" or "300M".
func parseCacheSize(s string) int64 {
	s = strings.TrimSpace(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}
