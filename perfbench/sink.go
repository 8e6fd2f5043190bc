package main

import (
	"math"

	"github.com/mobilegrid/adf/internal/engine"
)

// sink is the benchmark's only engine.Observer. It counts offered and
// transmitted LUs, accumulates the with-LE broker's squared location
// error (the paper's Figure-7 RMSE), and optionally stamps when the
// brokers hold a transmitted LU.
type sink struct {
	offered, transmitted uint64
	sumSq                float64
	errN                 uint64

	// lat, when set, receives the delay from the round's start to the
	// moment both brokers hold a transmitted LU, for one in latStride
	// transmitted LUs.
	lat       *sampler
	latStride uint64
	tickStart int64
	pending   bool
}

var _ engine.Observer = (*sink)(nil)

func (s *sink) OnOffered(engine.Sample) error {
	s.offered++
	return nil
}

func (s *sink) OnTransmitted(engine.Sample) error {
	s.transmitted++
	s.pending = s.lat != nil && s.transmitted%s.latStride == 0
	return nil
}

func (s *sink) OnError(_ engine.Sample, v engine.Variant, d float64) error {
	if v != engine.WithLE {
		return nil
	}
	s.sumSq += d * d
	s.errN++
	if s.pending {
		s.pending = false
		s.lat.add(float64(nanotime()-s.tickStart) / 1e6)
	}
	return nil
}

func (s *sink) OnTick(float64) error { return nil }

// quality is the paper-facing outcome of a tick prefix: deterministic
// for a given seed, and identical whether or not the run was traced.
type quality struct {
	Offered     uint64  `json:"offered"`
	Transmitted uint64  `json:"transmitted"`
	RMSEWithLE  float64 `json:"rmse_with_le_m"`
}

func (s *sink) quality() quality {
	q := quality{Offered: s.offered, Transmitted: s.transmitted}
	if s.errN > 0 {
		q.RMSEWithLE = math.Sqrt(s.sumSq / float64(s.errN))
	}
	return q
}

// reductionPct is Figure 4's reduction against the ideal filter, which
// transmits every offered sample.
func (q quality) reductionPct() float64 {
	if q.Offered == 0 {
		return 0
	}
	return 100 * (1 - float64(q.Transmitted)/float64(q.Offered))
}

// sane reports whether the quality figures are usable at all.
func (q quality) sane() bool {
	r := q.reductionPct()
	return q.Offered > 0 && r > 0 && r < 100 && q.RMSEWithLE > 0 && !math.IsInf(q.RMSEWithLE, 0) && !math.IsNaN(q.RMSEWithLE)
}
