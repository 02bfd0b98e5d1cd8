package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"triplec/internal/pipeline"
)

// outputDigest runs the serial engine over frames of the default study's
// sequence for seed and returns an FNV-1a digest of every frame's zoomed
// output (geometry plus pixels, little-endian) and marker-candidate count.
// A frame without output contributes a zero-size record, so dropping or
// gaining an output frame changes the digest too.
func outputDigest(seed uint64, frames int) (digest string, outputs int, err error) {
	s := DefaultStudy()
	seq, err := s.Sequence(seed)
	if err != nil {
		return "", 0, err
	}
	eng, err := s.Engine()
	if err != nil {
		return "", 0, err
	}
	reports, err := eng.RunSequence(frames, Source(seq), nil)
	if err != nil {
		return "", 0, err
	}
	for _, r := range reports {
		if r.Output != nil {
			outputs++
		}
	}
	return digestReports(reports), outputs, nil
}

func digestReports(reports []pipeline.Report) string {
	h := fnv.New64a()
	var buf []byte
	for _, r := range reports {
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Candidates))
		w, ht := 0, 0
		if r.Output != nil {
			w, ht = r.Output.Width(), r.Output.Height()
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ht))
		if r.Output != nil {
			for y := r.Output.Bounds.Y0; y < r.Output.Bounds.Y1; y++ {
				for _, v := range r.Output.Row(y) {
					buf = binary.LittleEndian.AppendUint16(buf, v)
				}
			}
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenOutputDigests pins the pixel output of the whole task chain.
// Kernel rewrites (interior fast paths, table-driven resampling, identity
// copies) claim bit-identical output; these digests were captured before
// such a rewrite and must not move unless a change says why.
func TestGoldenOutputDigests(t *testing.T) {
	const frames = 90
	golden := []struct {
		seed uint64
		want string
	}{
		{1, "edad9754edba0e2d"},
		{2, "0dced7dea0bb6d25"},
		{1014, "f358d50a310345d2"},
		{77, "711fae3b48bd0e50"},
	}
	for _, g := range golden {
		got, outputs, err := outputDigest(g.seed, frames)
		if err != nil {
			t.Fatal(err)
		}
		if outputs < frames/2 {
			t.Errorf("seed %d: only %d of %d frames produced output", g.seed, outputs, frames)
		}
		if got != g.want {
			t.Errorf("seed %d, %d frames: output digest %s, want %s", g.seed, frames, got, g.want)
		}
	}
}
