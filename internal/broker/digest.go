package broker

import "github.com/mobilegrid/adf/internal/sanitize"

// DigestState folds the broker's full state — every believed DB entry
// plus the received/estimated counters — into d. Node IDs are assigned
// densely from zero, so records.Range visits them in ascending ID order
// and the digest is deterministic across runs.
func (b *Broker) DigestState(d *sanitize.Digest) {
	d.WriteInt(b.records.Count())
	b.records.Range(func(node int, r *record) bool {
		d.WriteInt(node)
		d.WriteFloat64(r.believed.Pos.X)
		d.WriteFloat64(r.believed.Pos.Y)
		d.WriteFloat64(r.believed.Time)
		d.WriteBool(r.believed.Estimated)
		return true
	})
	d.WriteUint64(b.received)
	d.WriteUint64(b.estimated)
}
