package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/filter"
)

// Layers the traced run records spans for. Each span wraps a call from
// the benchmark or the engine into a layer's public surface; layers the
// engine calls on concrete types are timed by the replay instead.
const (
	lRound     = iota // one sampling round of the benchmark loop (root)
	lTick             // engine.Pipeline.Tick
	lOffer            // filter.Filter.Offer (the ADF)
	lForget           // filter.Filter.Forget
	lObserve          // engine.Observer callbacks
	lSend             // hla.Client.SendInteraction
	lSenderTAR        // sender's hla.Client.TimeAdvanceRequest
	lRecv             // receiver's hla.Ambassador.ReceiveInteraction
	lRecvTAR          // receiver's hla.Client.TimeAdvanceRequest
	nLayers
)

var layerNames = [nLayers]string{
	"round", "engine.tick", "core.offer", "engine.forget", "engine.observers",
	"hla.send", "hla.sender_tar", "hla.recv", "hla.receiver_tar",
}

// parent is each layer's enclosing span, for self time.
var parent = [nLayers]int{
	lRound: -1, lTick: lRound, lOffer: lTick, lForget: lTick, lObserve: lTick,
	lSend: lRound, lSenderTAR: lRound, lRecv: lRecvTAR, lRecvTAR: -1,
}

// agg is a layer's aggregate: calls counts every call, timed the calls
// whose time is in ns (all of them, except for sampled layers).
type agg struct {
	start, ns, calls, timed int64
}

// estNS is the aggregate's time, scaled up from the timed calls.
func (a agg) estNS() float64 {
	if a.timed == 0 {
		return 0
	}
	return float64(a.ns) * float64(a.calls) / float64(a.timed)
}

// span is one recorded span: a layer's aggregate over one round (calls
// > 0), or a single LU's call (lu >= 0).
type span struct {
	Layer                        int
	Round, LU, Start, Dur, Calls int64
}

// maxSpans bounds the spans kept for the trace file; totals keep
// counting past it.
const maxSpans = 1 << 14

// observerSample is the share of observer callbacks timed: the callbacks
// are a few nanoseconds each, so timing every one would mostly measure
// the clock.
const observerSample = 8

// tracer keeps spans in memory: per layer per round one aggregate span
// carrying the call count, plus one span per LU on the RTI path.
// One tracer belongs to one goroutine.
type tracer struct {
	cur    [nLayers]agg
	tot    [nLayers]agg
	rounds int64
	// offerNS keeps per-call Offer durations for the p99.
	offerNS *sampler
	spans   []span
	luSpans []span
}

func newTracer() *tracer {
	return &tracer{offerNS: newSampler(1 << 16), spans: make([]span, 0, maxSpans), luSpans: make([]span, 0, maxSpans)}
}

func (t *tracer) add(layer int, start, end int64) {
	c := &t.cur[layer]
	if c.timed == 0 {
		c.start = start
	}
	c.ns += end - start
	c.calls++
	c.timed++
}

// count records an untimed call of a sampled layer.
func (t *tracer) count(layer int) { t.cur[layer].calls++ }

// addLU records one per-LU span besides the layer aggregate.
func (t *tracer) addLU(layer int, lu int64, start, end int64) {
	t.add(layer, start, end)
	if len(t.luSpans) < cap(t.luSpans) {
		t.luSpans = append(t.luSpans, span{Layer: layer, Round: t.rounds, LU: lu, Start: start, Dur: end - start})
	}
}

// endRound closes the round's aggregates. Rounds with no calls on a
// layer record no span for it.
func (t *tracer) endRound() {
	for l := range t.cur {
		c := t.cur[l]
		if c.calls == 0 {
			continue
		}
		t.tot[l].ns += c.ns
		t.tot[l].calls += c.calls
		t.tot[l].timed += c.timed
		if len(t.spans) < cap(t.spans) {
			t.spans = append(t.spans, span{Layer: l, Round: t.rounds, LU: -1, Start: c.start, Dur: int64(c.estNS()), Calls: c.calls})
		}
		t.cur[l] = agg{}
	}
	t.rounds++
}

// merge folds another goroutine's tracer into t after both finished.
func (t *tracer) merge(o *tracer) {
	for l := range t.tot {
		t.tot[l].ns += o.tot[l].ns
		t.tot[l].calls += o.tot[l].calls
		t.tot[l].timed += o.tot[l].timed
	}
	for _, s := range o.spans {
		if len(t.spans) < cap(t.spans) {
			t.spans = append(t.spans, s)
		}
	}
	for _, s := range o.luSpans {
		if len(t.luSpans) < cap(t.luSpans) {
			t.luSpans = append(t.luSpans, s)
		}
	}
}

// selfNS is a layer's total span time minus its direct children's.
func (t *tracer) selfNS(layer int) float64 {
	ns := t.tot[layer].estNS()
	for l, p := range parent {
		if p == layer {
			ns -= t.tot[l].estNS()
		}
	}
	return ns
}

func (t *tracer) perCall(layer int) float64 {
	return ratio(float64(t.tot[layer].ns), float64(t.tot[layer].timed))
}

// writeChrome writes the kept spans as Chrome trace_event JSON: one
// thread per layer, aggregates as complete events carrying their call
// count, per-LU spans on their own threads.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	emit := func(s span, lu bool) error {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		ev := map[string]any{
			"name": layerNames[s.Layer], "ph": "X", "pid": 1, "tid": s.Layer,
			"ts": float64(s.Start) / 1e3, "dur": float64(s.Dur) / 1e3,
			"args": map[string]int64{"round": s.Round, "calls": s.Calls},
		}
		if lu {
			ev["tid"] = 100 + s.Layer
			ev["args"] = map[string]int64{"round": s.Round, "lu": s.LU}
		}
		return enc.Encode(ev)
	}
	for _, s := range t.spans {
		if err := emit(s, false); err != nil {
			_ = f.Close()
			return err
		}
	}
	for _, s := range t.luSpans {
		if err := emit(s, true); err != nil {
			_ = f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// tracedFilter records a span around every call into the filter.
type tracedFilter struct {
	f  filter.Filter
	tr *tracer
}

func (t *tracedFilter) Name() string { return t.f.Name() }

func (t *tracedFilter) Offer(lu filter.LU) filter.Decision {
	s := nanotime()
	d := t.f.Offer(lu)
	e := nanotime()
	t.tr.add(lOffer, s, e)
	t.tr.offerNS.add(float64(e - s))
	return d
}

func (t *tracedFilter) Forget(n int) {
	s := nanotime()
	t.f.Forget(n)
	t.tr.add(lForget, s, nanotime())
}

// tracedObserver counts every observer callback and times one in
// observerSample of them.
type tracedObserver struct {
	o  engine.Observer
	tr *tracer
	n  int
}

// timing reports whether this call is timed; untimed calls are counted.
func (t *tracedObserver) timing() bool {
	t.n++
	if t.n%observerSample != 0 {
		t.tr.count(lObserve)
		return false
	}
	return true
}

func (t *tracedObserver) OnOffered(smp engine.Sample) error {
	if !t.timing() {
		return t.o.OnOffered(smp)
	}
	s := nanotime()
	err := t.o.OnOffered(smp)
	t.tr.add(lObserve, s, nanotime())
	return err
}

func (t *tracedObserver) OnTransmitted(smp engine.Sample) error {
	if !t.timing() {
		return t.o.OnTransmitted(smp)
	}
	s := nanotime()
	err := t.o.OnTransmitted(smp)
	t.tr.add(lObserve, s, nanotime())
	return err
}

func (t *tracedObserver) OnError(smp engine.Sample, v engine.Variant, d float64) error {
	if !t.timing() {
		return t.o.OnError(smp, v, d)
	}
	s := nanotime()
	err := t.o.OnError(smp, v, d)
	t.tr.add(lObserve, s, nanotime())
	return err
}

func (t *tracedObserver) OnTick(now float64) error {
	if !t.timing() {
		return t.o.OnTick(now)
	}
	s := nanotime()
	err := t.o.OnTick(now)
	t.tr.add(lObserve, s, nanotime())
	return err
}
