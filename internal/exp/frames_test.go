package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/gpu"
	"repro/internal/workloads"
)

// TestParkedWarpFrameUnchanged pins the frame pb-sgemm writes at its first
// heartbeat (cycle 1024) on the experiments' device. It holds warps parked at
// a barrier, and a parked warp's buffer fill level and cursor position travel
// in a frame: the hash pins them in the layout version 11 gave them (a fill
// level, no copy of the buffer, and the cursor at the issue point; version 12
// moved only the collectors' state), and refilling a warp's buffer as it
// issues BAR moves it, though no statistic moves.
func TestParkedWarpFrameUnchanged(t *testing.T) {
	app, err := workloads.ByName("pb-sgemm")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.New(DeviceFor(Base(), app))
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	var at int64
	g.SetSnapshotHook(func(g *gpu.GPU) error {
		if frame != nil {
			return nil
		}
		var buf bytes.Buffer
		err := g.WriteSnapshot(&buf)
		frame, at = buf.Bytes(), g.Cycle()
		return err
	})
	if err := g.RunKernels(app.Kernels, 0); err != nil {
		t.Fatal(err)
	}
	const want = "ded820ee341658d403d87ee5675092b54e61ec4f69b8df7161ee3c2eaba82159"
	if got := fmt.Sprintf("%x", sha256.Sum256(frame)); at != 1024 || got != want {
		t.Errorf("the first heartbeat's frame (cycle %d, %d bytes) hashes to %s, the parent's (cycle 1024) to %s", at, len(frame), got, want)
	}
}
