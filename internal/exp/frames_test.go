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
// a barrier, and a parked warp's buffer fill and cursor position travel in a
// frame: the hash is the one the build that still refilled every buffer in
// the decode stage wrote, and refilling a warp's buffer as it issues BAR
// moves it, though no statistic moves. Version 9 re-pinned it for the
// header alone: the payload after the 16-byte machine ID hashes to
// 6dfbbf2fc70f16bbecc5950b94d55039231fe9e35890de91c023efd45203c505 under
// both versions (version 8's frame: 382e4ce48405db1b1d3d6f0e86f1b21dc74d690110d05b2ffab3bc921297cd30).
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
	const want = "e733b3db682f48fa41508319db8bb17adc5b7682169ec48cc6d2d4ca78f567b9"
	if got := fmt.Sprintf("%x", sha256.Sum256(frame)); at != 1024 || got != want {
		t.Errorf("the first heartbeat's frame (cycle %d, %d bytes) hashes to %s, the parent's (cycle 1024) to %s", at, len(frame), got, want)
	}
}
