package frame

import "math"

// Bilinear resampling onto a regular grid. Resize, Translate, the ENH canvas
// and the REG patches all sample a source at every point of a grid whose
// x coordinate depends only on the column and whose y coordinate depends
// only on the row. BilinearGrid exploits that separability: floor, fraction
// and the clamped tap indices are computed once per column and once per row,
// so the per-pixel work is four loads and the weight expression.
//
// The tables reproduce BilinearAt bit for bit. Replicate borders come from
// clamping each tap index on its own (the AtClamped path) while the
// fraction stays unclamped, and every sample goes through the same bilerp
// weight expression, so the grid and the point sampler agree on every
// input, including coordinates far outside the frame.

// gridChunk is how many columns' taps are tabulated at once. The table lives
// on the stack, so the grid kernels allocate nothing; wider grids are
// processed in column chunks.
const gridChunk = 256

// gridTap is one axis coordinate resolved into its two clamped tap indices
// (relative to the frame's origin) and the unclamped fraction.
type gridTap struct {
	i0, i1 int
	f      float64
}

// axisTap resolves coordinate c on an axis whose valid absolute range is
// [lo, hi), which must be non-empty.
func axisTap(c float64, lo, hi int) gridTap {
	i := int(math.Floor(c))
	return gridTap{clampTap(i, lo, hi) - lo, clampTap(i+1, lo, hi) - lo, c - float64(i)}
}

func clampTap(i, lo, hi int) int {
	if i < lo {
		return lo
	}
	if i >= hi {
		return hi - 1
	}
	return i
}

// bilerp is the one bilinear weight expression. Its association is part of
// the output: pre-multiplying the weights changes results in the last bit.
func bilerp(v00, v10, v01, v11, fx, fy float64) float64 {
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}

// BilinearGrid samples src at every grid point (xAt(i), yAt(j)) for i < nx,
// j < ny, with bilinear interpolation and replicate borders, and writes the
// rounded, clamped samples to dst[j*stride+i]. On a non-empty source xAt is
// called once per column and yAt once per row and column chunk, never per
// pixel. Every sample equals clamp16(BilinearAt(src, xAt(i), yAt(j))).
func BilinearGrid(dst []uint16, stride int, src *Frame, nx, ny int, xAt, yAt func(int) float64) {
	bilinearGrid(dst, nil, stride, src, nx, ny, xAt, yAt)
}

// BilinearGridF is BilinearGrid keeping the unrounded samples: dst[j*stride+i]
// equals BilinearAt(src, xAt(i), yAt(j)).
func BilinearGridF(dst []float64, stride int, src *Frame, nx, ny int, xAt, yAt func(int) float64) {
	bilinearGrid(nil, dst, stride, src, nx, ny, xAt, yAt)
}

// bilinearGrid writes to dstU when dstF is nil, else to dstF.
func bilinearGrid(dstU []uint16, dstF []float64, stride int, src *Frame, nx, ny int, xAt, yAt func(int) float64) {
	b := src.Bounds
	if b.Empty() {
		// No taps to tabulate; BilinearAt defines the (all-zero-tap) result.
		for j := 0; j < ny; j++ {
			y := yAt(j)
			for i := 0; i < nx; i++ {
				v := BilinearAt(src, xAt(i), y)
				if dstF != nil {
					dstF[j*stride+i] = v
				} else {
					dstU[j*stride+i] = clamp16(v)
				}
			}
		}
		return
	}
	w := b.Width()
	var table [gridChunk]gridTap
	for c0 := 0; c0 < nx; c0 += gridChunk {
		cols := table[:min(gridChunk, nx-c0)]
		for k := range cols {
			cols[k] = axisTap(xAt(c0+k), b.X0, b.X1)
		}
		for j := 0; j < ny; j++ {
			ty := axisTap(yAt(j), b.Y0, b.Y1)
			r0 := src.Pix[ty.i0*src.Stride : ty.i0*src.Stride+w]
			r1 := src.Pix[ty.i1*src.Stride : ty.i1*src.Stride+w]
			fy := ty.f
			d0 := j*stride + c0
			if dstF != nil {
				drow := dstF[d0 : d0+len(cols)]
				for i, c := range cols {
					drow[i] = bilerp(float64(r0[c.i0]), float64(r0[c.i1]),
						float64(r1[c.i0]), float64(r1[c.i1]), c.f, fy)
				}
			} else {
				drow := dstU[d0 : d0+len(cols)]
				for i, c := range cols {
					drow[i] = clamp16(bilerp(float64(r0[c.i0]), float64(r0[c.i1]),
						float64(r1[c.i0]), float64(r1[c.i1]), c.f, fy))
				}
			}
		}
	}
}
