package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchGemm runs one kernel over square size³ operands.
func benchGemm(b *testing.B, size int, f func(dst, a, bm *Matrix)) {
	rng := rand.New(rand.NewSource(77))
	a, bm := randMat(rng, size, size), randMat(rng, size, size)
	dst := New(size, size)
	b.SetBytes(int64(size) * int64(size) * int64(size) * 2 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		f(dst, a, bm)
	}
	flops := 2 * float64(size) * float64(size) * float64(size)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkKernels compares the naive baseline, the tiled serial kernel, and
// the pooled parallel kernel on the paper-relevant GEMM shapes. The
// "workers4" variants are the ≥3×-at-4-workers target of the kernel rewrite
// (meaningful only on a machine with ≥4 cores).
func BenchmarkKernels(b *testing.B) {
	serial := NewPool(KernelConfig{Workers: 1})
	defer serial.Close()
	par := NewPool(KernelConfig{Workers: 4})
	defer par.Close()
	for _, size := range []int{64, 256} {
		b.Run(fmt.Sprintf("MatMul/naive/%d", size), func(b *testing.B) {
			benchGemm(b, size, NaiveMatMul)
		})
		b.Run(fmt.Sprintf("MatMul/tiled/%d", size), func(b *testing.B) {
			benchGemm(b, size, serial.MatMul)
		})
		b.Run(fmt.Sprintf("MatMul/workers4/%d", size), func(b *testing.B) {
			benchGemm(b, size, par.MatMul)
		})
		b.Run(fmt.Sprintf("MatMulBT/naive/%d", size), func(b *testing.B) {
			benchGemm(b, size, NaiveMatMulBT)
		})
		b.Run(fmt.Sprintf("MatMulBT/tiled/%d", size), func(b *testing.B) {
			benchGemm(b, size, serial.MatMulBT)
		})
		b.Run(fmt.Sprintf("MatMulBT/workers4/%d", size), func(b *testing.B) {
			benchGemm(b, size, par.MatMulBT)
		})
		b.Run(fmt.Sprintf("MatMulAT/naive/%d", size), func(b *testing.B) {
			benchGemm(b, size, NaiveMatMulAT)
		})
		b.Run(fmt.Sprintf("MatMulAT/tiled/%d", size), func(b *testing.B) {
			benchGemm(b, size, serial.MatMulAT)
		})
		b.Run(fmt.Sprintf("MatMulAT/workers4/%d", size), func(b *testing.B) {
			benchGemm(b, size, par.MatMulAT)
		})
	}
}

// decoderLayer is one linear layer's operands at a decoder slice: input x,
// output y, weight w, and their gradients.
type decoderLayer struct{ x, y, w, dx, dy, dw *Matrix }

// BenchmarkDecoderSlice times the three GEMMs of a linear layer — forward
// y += x·W, activation gradient dx += dy·Wᵀ, weight gradient dW += xᵀ·dy —
// at the shapes the pipelined decoder runs them: one slice of 8 rows
// (SeqLen 32 / S 4) through each in×out weight of the training benchmark's
// model (hidden 64, FFN 256, vocab 256). The rows × in × out sub-benchmarks
// take one weight shape; "mix" takes the eight linear layers the
// benchmark's gemmRate times, and kernel "all" runs the three GEMMs of
// each layer, so all/mix is the rate gemmRate reports.
func BenchmarkDecoderSlice(b *testing.B) {
	const rows, h, f, v = 8, 64, 256, 256
	mix := [][2]int{{h, h}, {h, h}, {h, h}, {h, h}, {h, f}, {h, f}, {f, h}, {h, v}}
	serial := NewPool(KernelConfig{Workers: 1})
	defer serial.Close()
	kernels := []struct {
		name  string
		gemms int
		run   func(l decoderLayer)
	}{
		{"MatMul", 1, func(l decoderLayer) { serial.MatMul(l.y, l.x, l.w) }},
		{"MatMulBT", 1, func(l decoderLayer) { serial.MatMulBT(l.dx, l.dy, l.w) }},
		{"MatMulAT", 1, func(l decoderLayer) { serial.MatMulAT(l.dw, l.x, l.dy) }},
		{"all", 3, func(l decoderLayer) {
			serial.MatMul(l.y, l.x, l.w)
			serial.MatMulBT(l.dx, l.dy, l.w)
			serial.MatMulAT(l.dw, l.x, l.dy)
		}},
	}
	bench := func(b *testing.B, shapes [][2]int, gemms int, run func(decoderLayer)) {
		rng := rand.New(rand.NewSource(78))
		var layers []decoderLayer
		var flop float64
		for _, sh := range shapes {
			in, out := sh[0], sh[1]
			layers = append(layers, decoderLayer{randMat(rng, rows, in), New(rows, out), randMat(rng, in, out),
				New(rows, in), randMat(rng, rows, out), New(in, out)})
			flop += float64(gemms) * 2 * float64(rows*in*out)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, l := range layers {
				run(l)
			}
		}
		b.ReportMetric(flop*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	}
	for _, kern := range kernels {
		for _, sh := range [][2]int{{h, h}, {h, f}, {f, h}} {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kern.name, rows, sh[0], sh[1]), func(b *testing.B) {
				bench(b, [][2]int{sh}, kern.gemms, kern.run)
			})
		}
		b.Run(kern.name+"/mix", func(b *testing.B) { bench(b, mix, kern.gemms, kern.run) })
	}
}
