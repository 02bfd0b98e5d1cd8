package frame

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the stencil kernels, named so that
// `go test -bench . ./internal/frame | benchstat old.txt new.txt`
// lines up across revisions: BenchmarkKernel/<op>/<size>-<procs>.
// The <op>=naive entries run the clamp-every-tap reference from
// equiv_test.go, quantifying the interior/border split's speedup
// within a single run. Resize/split is the half-size resample MKX
// runs; Resize/identity is ZOOM's same-size case.

func benchFrame(size int) *Frame {
	rng := rand.New(rand.NewSource(42))
	f := New(size, size)
	for i := range f.Pix {
		f.Pix[i] = uint16(rng.Intn(65536))
	}
	return f
}

var benchSizes = []int{128, 512}

func BenchmarkKernel(b *testing.B) {
	kern, err := NewKernel([]float64{0, -1, 0, -1, 5, -1, 0, -1, 0})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range benchSizes {
		src := benchFrame(size)
		dst := New(size, size)
		half := New(size/2, size/2)
		sz := fmt.Sprintf("%dx%d", size, size)
		pix := int64(size * size * 2)

		cases := []struct {
			name string
			run  func()
		}{
			{"Convolve3x3/split", func() { ConvolveInto(dst, src, kern) }},
			{"Convolve3x3/naive", func() { naiveConvolve(src, kern) }},
			{"GaussianBlur/split", func() { GaussianBlurInto(dst, src, 1.2) }},
			{"GaussianBlur/naive", func() { naiveGaussianBlur(src, 1.2) }},
			{"Median3x3/split", func() { Median3x3Into(dst, src) }},
			{"Median3x3/naive", func() { naiveMedian3x3(src) }},
			{"Sobel/split", func() { SobelInto(dst, src) }},
			{"Sobel/naive", func() { naiveSobel(src) }},
			{"Resize/split", func() { ResizeInto(half, src, size/2, size/2) }},
			{"Resize/naive", func() { naiveResize(src, size/2, size/2) }},
			{"Resize/identity", func() { ResizeInto(dst, src, size, size) }},
			{"Resize/identity-naive", func() { naiveResize(src, size, size) }},
			{"Translate/grid", func() { TranslateInto(dst, src, 0.7, -1.3) }},
		}
		for _, tc := range cases {
			b.Run(tc.name+"/"+sz, func(b *testing.B) {
				b.SetBytes(pix)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tc.run()
				}
			})
		}
	}
}

func BenchmarkKernelParallel(b *testing.B) {
	for _, size := range benchSizes {
		src := benchFrame(size)
		dst := New(size, size)
		sz := fmt.Sprintf("%dx%d", size, size)
		for _, stripes := range []int{2, 4} {
			b.Run(fmt.Sprintf("GaussianBlur/k%d/%s", stripes, sz), func(b *testing.B) {
				b.SetBytes(int64(size * size * 2))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					GaussianBlurIntoParallel(dst, src, 1.2, stripes)
				}
			})
		}
	}
}

func BenchmarkPool(b *testing.B) {
	b.Run("BorrowRelease/512x512", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Release(BorrowUninit(512, 512))
		}
	})
	b.Run("New/512x512", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = New(512, 512)
		}
	})
}
