package regfile

import (
	"fmt"

	"repro/internal/snapshot"
)

// EncodeState serializes the collector's full mutable state: every staged
// collector unit, the per-bank read and write queues, and — when a delayed
// tap exists — the queue-length history ring that feeds it.
func (c *Collector) EncodeState(e *snapshot.Encoder) { e.State(&c.collectorState) }

// RestoreState decodes into a collector freshly built with the same shape
// (CU count, banks, score-delay ring); the walker checks that shape.
func (c *Collector) RestoreState(d *snapshot.Decoder) error {
	d.State(&c.collectorState)
	if err := d.Err(); err != nil {
		return err
	}
	if c.histPos < 0 || c.histPos >= max(len(c.qlenHist), 1) {
		return fmt.Errorf("regfile: snapshot histPos %d out of ring [0,%d)", c.histPos, len(c.qlenHist))
	}
	// Granted writes never outlive the cycle that granted them.
	c.grantedW = c.grantedW[:0]
	// The maintained counts are derived: rebuild them from the restored
	// queues and units.
	c.derive(&c.derived)
	return nil
}
