package tasks

import (
	"math"
	"math/rand"
	"testing"

	"triplec/internal/frame"
)

// The ENH canvas and the REG patches sample through frame.BilinearGrid.
// These tests pin both against the per-pixel frame.BilinearAt loops they
// replaced, bit for bit.

func noiseFrame(seed int64, w, h int) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = uint16(rng.Intn(65536))
	}
	return f
}

// refCanvas is the per-pixel ENH resampling loop.
func refCanvas(roi *frame.Frame, c *Couple, w, h int) *frame.Frame {
	scale := 1.0
	if c.Spacing > 0 {
		scale = 0.4 * float64(w) / c.Spacing
	}
	mx, my := c.Mid()
	out := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx := mx + (float64(x)-float64(w)/2)/scale
			sy := my + (float64(y)-float64(h)/2)/scale
			v := frame.BilinearAt(roi, sx, sy)
			switch {
			case v <= 0:
				out.Pix[y*w+x] = 0
			case v >= 65535:
				out.Pix[y*w+x] = 65535
			default:
				out.Pix[y*w+x] = uint16(v + 0.5)
			}
		}
	}
	return out
}

func TestEnhancerRunMatchesPerPixelReference(t *testing.T) {
	full := noiseFrame(1, 96, 80)
	// A view with a non-zero origin, as the ROI path hands ENH.
	view := full.SubFrame(frame.R(10, 7, 90, 71))
	couples := []*Couple{
		// Tiny spacing: a large scale, the canvas magnifies a few pixels.
		{A: Marker{X: 40.3, Y: 40.7}, B: Marker{X: 42.1, Y: 41.2}, Spacing: 1.9},
		// Wide spacing: the canvas covers more than the frame and hangs
		// off every edge.
		{A: Marker{X: 5.5, Y: 30}, B: Marker{X: 150.25, Y: 60}, Spacing: 148},
		// Midpoint outside the frame.
		{A: Marker{X: -20, Y: 100}, B: Marker{X: -4, Y: 120.5}, Spacing: 25.6},
		// Zero spacing keeps unit scale.
		{A: Marker{X: 33, Y: 12}, B: Marker{X: 33, Y: 12}, Spacing: 0},
	}
	for _, src := range []*frame.Frame{full, view} {
		for i, c := range couples {
			for _, dims := range [][2]int{{64, 64}, {37, 29}, {300, 3}} {
				enh := NewEnhancer(dims[0], dims[1], params())
				got, _ := enh.Run(src, c)
				want := refCanvas(src, c, dims[0], dims[1])
				// One integrated frame: the running average is the canvas.
				if !got.Equal(want) {
					t.Fatalf("couple %d, canvas %v, source %v: Run differs from the per-pixel reference",
						i, dims, src.Bounds)
				}
			}
		}
	}
}

// refRegError is the per-pixel REG motion-criterion loop.
func refRegError(prev, cur *frame.Frame, pc, cc *Couple, radius int) float64 {
	res, n := 0.0, 0
	for _, pair := range [2][2]Marker{{pc.A, cc.A}, {pc.B, cc.B}} {
		for dy := -radius; dy <= radius; dy++ {
			for dx := -radius; dx <= radius; dx++ {
				a := frame.BilinearAt(prev, pair[0].X+float64(dx), pair[0].Y+float64(dy))
				b := frame.BilinearAt(cur, pair[1].X+float64(dx), pair[1].Y+float64(dy))
				res += math.Abs(a - b)
				n++
			}
		}
	}
	return res / float64(n)
}

func TestRegistratorErrorMatchesPerPixelReference(t *testing.T) {
	prev := noiseFrame(2, 64, 64)
	cur := noiseFrame(3, 70, 60).SubFrame(frame.R(3, 2, 67, 58))
	cases := [][2]*Couple{
		{{A: Marker{X: 20.25, Y: 30.5}, B: Marker{X: 40.75, Y: 31}}, {A: Marker{X: 22, Y: 29.125}, B: Marker{X: 42.5, Y: 30}}},
		// Patches reaching past the frame edges.
		{{A: Marker{X: 2, Y: 1.5}, B: Marker{X: 60.5, Y: 62}}, {A: Marker{X: 4.75, Y: 3}, B: Marker{X: 63, Y: 57.25}}},
	}
	for _, radius := range []int{0, 3, 16} {
		reg := NewRegistrator(params())
		reg.PatchRadius = radius
		for i, c := range cases {
			got, _ := reg.Run(prev, cur, c[0], c[1])
			if want := refRegError(prev, cur, c[0], c[1], radius); got.Error != want {
				t.Fatalf("case %d, radius %d: Error = %v, want %v", i, radius, got.Error, want)
			}
		}
	}
}

// TestEnhancerRunDoesNotAllocate pins ENH's steady state: resampling onto
// the reused canvas, integrating and averaging allocate nothing.
func TestEnhancerRunDoesNotAllocate(t *testing.T) {
	f := noiseFrame(4, 128, 128)
	c := &Couple{A: Marker{X: 46, Y: 64}, B: Marker{X: 82, Y: 64}, Spacing: 36}
	enh := NewEnhancer(128, 128, params())
	run := func() {
		if out, _ := enh.Run(f, c); out == nil {
			t.Fatal("enhancement returned nil")
		}
	}
	run()
	if avg := testing.AllocsPerRun(50, run); avg > 0 {
		t.Errorf("Enhancer.Run: %.2f allocs/op, want 0", avg)
	}
}

// TestRegistratorRunDoesNotAllocate pins REG's steady state: the patch
// buffers are reused across Runs.
func TestRegistratorRunDoesNotAllocate(t *testing.T) {
	prev, cur := noiseFrame(5, 128, 128), noiseFrame(6, 128, 128)
	pc := &Couple{A: Marker{X: 46, Y: 64}, B: Marker{X: 82, Y: 64}, Spacing: 36}
	cc := &Couple{A: Marker{X: 47.5, Y: 65}, B: Marker{X: 83.5, Y: 65}, Spacing: 36}
	reg := NewRegistrator(params())
	run := func() { reg.Run(prev, cur, pc, cc) }
	run()
	if avg := testing.AllocsPerRun(50, run); avg > 0 {
		t.Errorf("Registrator.Run: %.2f allocs/op, want 0", avg)
	}
}

func BenchmarkEnhancerRun(b *testing.B) {
	f := noiseFrame(7, 128, 128)
	c := &Couple{A: Marker{X: 46, Y: 64}, B: Marker{X: 82, Y: 64}, Spacing: 36}
	enh := NewEnhancer(128, 128, params())
	b.SetBytes(128 * 128 * frame.BytesPerPixel)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enh.Run(f, c)
	}
}

// BenchmarkZoomerRun measures ZOOM at the pipeline's geometry, where the
// output window equals the enhanced canvas (the identity-size copy).
func BenchmarkZoomerRun(b *testing.B) {
	f := noiseFrame(8, 128, 128)
	z := NewZoomer(128, 128, params())
	b.SetBytes(128 * 128 * frame.BytesPerPixel)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Run(f)
	}
}

func BenchmarkRegistratorRun(b *testing.B) {
	prev, cur := noiseFrame(9, 128, 128), noiseFrame(10, 128, 128)
	pc := &Couple{A: Marker{X: 46, Y: 64}, B: Marker{X: 82, Y: 64}, Spacing: 36}
	cc := &Couple{A: Marker{X: 47.5, Y: 65}, B: Marker{X: 83.5, Y: 65}, Spacing: 36}
	reg := NewRegistrator(params())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Run(prev, cur, pc, cc)
	}
}
