package experiment

import (
	"testing"

	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/sanitize"
)

// globalStateDigest folds the global-shape state the way the engine's
// campus-wide digest always has: every node's identity and true
// position, both brokers' DigestState, the filter's DigestState and the
// churn population. It is kept test-local so the pin below survives any
// change to the engine's own StateDigest layout.
func globalStateDigest(p *engine.Pipeline) uint64 {
	d := sanitize.NewDigest()
	for _, n := range p.Nodes {
		d.WriteInt(n.ID())
		pos := n.Pos()
		d.WriteFloat64(pos.X)
		d.WriteFloat64(pos.Y)
	}
	p.NoLE.DigestState(&d)
	p.WithLE.DigestState(&d)
	if f, ok := p.Filter.(engine.StateDigester); ok {
		f.DigestState(&d)
	}
	if p.Churn != nil {
		d.WriteInt(p.Churn.AbsentCount())
	} else if p.ChurnK != nil {
		d.WriteInt(p.ChurnK.AbsentCount())
	}
	return d.Sum()
}

// TestGlobalShapeDigestPinned pins the final-tick state of the paper's
// campus-wide shape: 140 nodes, one ADF over the whole campus, 3.5 %
// gateway drops, 300 ticks. A moved pin means the global shape's sample
// path changed; re-pin only for a deliberate semantics change and say
// why.
func TestGlobalShapeDigestPinned(t *testing.T) {
	churn := &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.3}
	cases := []struct {
		name  string
		rng   string
		churn *ChurnConfig
		want  uint64
	}{
		{"no-churn", RNGSequential, nil, 0x95fb460479bb255d},
		{"keyed-churn", RNGKeyed, churn, 0xc99429e83ffe0d33},
		{"sequential-churn", RNGSequential, churn, 0xf3c0fd8c6c3e0ed9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			c.Duration = 300
			c.RNGMode = tc.rng
			c.Churn = tc.churn
			p, _, err := c.buildRun(c.adfFactory(1.0))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			for tick := 1; tick <= 300; tick++ {
				if err := p.Tick(float64(tick) * c.SamplePeriod); err != nil {
					t.Fatal(err)
				}
			}
			if got := globalStateDigest(p); got != tc.want {
				t.Errorf("final digest %#016x, pinned %#016x", got, tc.want)
			}
		})
	}
}
