package tasks

import (
	"math"

	"triplec/internal/frame"
	"triplec/internal/platform"
)

// Registrator implements REG: temporal registration aligning the marker
// couple of the current frame with the couple of the previous frame, based
// on a motion criterion computed from the temporal difference of patches
// around the markers (paper Section 3).
type Registrator struct {
	// MaxShift is the largest credible inter-frame couple displacement in
	// pixels; larger apparent motion fails the motion criterion.
	MaxShift float64
	// PatchRadius is the half-size of the verification patches.
	PatchRadius int
	// MaxResidual is the acceptable mean temporal difference (16-bit scale)
	// within the aligned patches.
	MaxResidual float64

	Params CostParams

	// prevPatch and curPatch hold the sampled verification patches, reused
	// across Runs, so a Registrator is owned by one goroutine at a time.
	prevPatch, curPatch []float64
}

// NewRegistrator returns a registrator with clinically plausible motion
// bounds for the synthetic cardiac amplitudes.
func NewRegistrator(p CostParams) *Registrator {
	return &Registrator{MaxShift: 25, PatchRadius: 16, MaxResidual: 9000, Params: p}
}

// Run registers cur against prev using the current and previous frames.
// The frames may be nil on the first frame; registration then fails and is
// free (there is nothing to align yet). When frames exist but a couple is
// missing, registration fails yet still performs (and is charged) its
// temporal-difference probing — the paper models REG as a 2 ms constant.
func (r *Registrator) Run(prevFrame, curFrame *frame.Frame, prevCouple, curCouple *Couple) (Registration, platform.Cost) {
	if prevFrame == nil || curFrame == nil {
		return Registration{}, r.Params.cost(0)
	}
	// The nominal constant cost of the stage: two 65x65 patch correlations
	// at full geometry, charged whether or not a couple was available,
	// because the motion criterion's temporal difference always runs.
	nominal := 2 * 65 * 65 * r.Params.RegPerPixel
	if prevCouple == nil || curCouple == nil {
		return Registration{}, r.Params.cost(nominal)
	}
	px, py := prevCouple.Mid()
	cx, cy := curCouple.Mid()
	reg := Registration{DX: cx - px, DY: cy - py}
	shift := math.Hypot(reg.DX, reg.DY)
	if shift <= r.MaxShift {
		// Motion criterion: temporal difference between the previous patch
		// translated by (DX, DY) and the current patch around each marker.
		res := 0.0
		n := 0
		for _, pair := range [2][2][2]float64{
			{{prevCouple.A.X, prevCouple.A.Y}, {curCouple.A.X, curCouple.A.Y}},
			{{prevCouple.B.X, prevCouple.B.Y}, {curCouple.B.X, curCouple.B.Y}},
		} {
			r.prevPatch = r.samplePatch(r.prevPatch, prevFrame, pair[0])
			r.curPatch = r.samplePatch(r.curPatch, curFrame, pair[1])
			for i, a := range r.prevPatch {
				res += math.Abs(a - r.curPatch[i])
				n++
			}
		}
		if n > 0 {
			reg.Error = res / float64(n)
			reg.OK = reg.Error <= r.MaxResidual
		}
	}
	return reg, r.Params.cost(nominal)
}

// samplePatch samples f on the (2*PatchRadius+1)^2 integer-offset grid
// centred on p, rows top to bottom, into buf (reallocated only when too
// small) and returns the samples.
func (r *Registrator) samplePatch(buf []float64, f *frame.Frame, p [2]float64) []float64 {
	side := max(2*r.PatchRadius+1, 0)
	if cap(buf) < side*side {
		buf = make([]float64, side*side)
	}
	buf = buf[:side*side]
	frame.BilinearGridF(buf, side, f, side, side,
		func(i int) float64 { return p[0] + float64(i-r.PatchRadius) },
		func(j int) float64 { return p[1] + float64(j-r.PatchRadius) })
	return buf
}

// ROIEstimator implements ROI EST: estimate the region of interest in the
// original image where the markers have been detected, padded so the stent
// and wire context fit.
type ROIEstimator struct {
	// PadFactor scales the couple spacing into the ROI padding.
	PadFactor float64
	// MinSize clamps the ROI to a useful minimum side length.
	MinSize int

	Params CostParams
}

// NewROIEstimator returns the estimator used by the pipeline.
func NewROIEstimator(p CostParams) *ROIEstimator {
	return &ROIEstimator{PadFactor: 0.8, MinSize: 32, Params: p}
}

// Run derives the ROI for couple within bounds. The fixed small workload
// matches the paper's constant 1 ms model.
func (e *ROIEstimator) Run(couple *Couple, bounds frame.Rect) (frame.Rect, platform.Cost) {
	// The paper models ROI EST as a 1 ms constant; the work is bookkeeping
	// proportional to nothing observable, so only the baseline plus a fixed
	// term is charged.
	cycles := e.Params.pixCost(4096, e.Params.ThresholdPerPixel)
	if couple == nil {
		return frame.Rect{}, e.Params.cost(cycles)
	}
	pad := int(e.PadFactor * couple.Spacing)
	if pad < e.MinSize/2 {
		pad = e.MinSize / 2
	}
	x0 := int(math.Min(couple.A.X, couple.B.X)) - pad
	y0 := int(math.Min(couple.A.Y, couple.B.Y)) - pad
	x1 := int(math.Max(couple.A.X, couple.B.X)) + pad + 1
	y1 := int(math.Max(couple.A.Y, couple.B.Y)) + pad + 1
	roi := frame.R(x0, y0, x1, y1).Intersect(bounds)
	return roi, e.Params.cost(cycles)
}
