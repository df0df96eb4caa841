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

// BenchmarkMatMul256 is the 256×256×256 GEMM through the naive baseline,
// the serial kernel, and the pooled 4-worker kernel. The 4-worker speedup
// over serial is only observable on a machine with ≥4 cores.
func BenchmarkMatMul256(b *testing.B) {
	serial := NewPool(KernelConfig{Workers: 1})
	defer serial.Close()
	par := NewPool(KernelConfig{Workers: 4})
	defer par.Close()
	b.Run("naive", func(b *testing.B) { benchGemm(b, 256, NaiveMatMul) })
	b.Run("serial", func(b *testing.B) { benchGemm(b, 256, serial.MatMul) })
	b.Run("workers4", func(b *testing.B) { benchGemm(b, 256, par.MatMul) })
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

// decoderRows is one slice of the training benchmark's decoder (SeqLen 32
// / S 4). decoderMix is the in×out weights of its eight linear layers
// (hidden 64, FFN 256, vocab 256): the set the benchmark's gemmRate times.
const decoderRows = 8

var decoderMix = [][2]int{{64, 64}, {64, 64}, {64, 64}, {64, 64}, {64, 256}, {64, 256}, {256, 64}, {64, 256}}

// benchDecoder times run over one decoder slice's layers of the given
// in×out weight shapes; gemms is the number of GEMMs run performs per layer.
func benchDecoder(b *testing.B, shapes [][2]int, gemms int, run func(decoderLayer)) {
	rng := rand.New(rand.NewSource(78))
	var layers []decoderLayer
	var flop float64
	for _, sh := range shapes {
		in, out := sh[0], sh[1]
		layers = append(layers, decoderLayer{randMat(rng, decoderRows, in), New(decoderRows, out), randMat(rng, in, out),
			New(decoderRows, in), randMat(rng, decoderRows, out), New(in, out)})
		flop += float64(gemms) * 2 * float64(decoderRows*in*out)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range layers {
			run(l)
		}
	}
	b.ReportMetric(flop*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkDecoderSlice times the three GEMMs of a linear layer — forward
// y += x·W, activation gradient dx += dy·Wᵀ, weight gradient dW += xᵀ·dy —
// at the shapes the pipelined decoder runs them. The rows × in × out
// sub-benchmarks take one weight shape; "mix" takes decoderMix, and kernel
// "all" runs the three GEMMs of each layer, so all/mix is the rate
// gemmRate reports.
func BenchmarkDecoderSlice(b *testing.B) {
	const h, f = 64, 256
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
	for _, kern := range kernels {
		for _, sh := range [][2]int{{h, h}, {h, f}, {f, h}} {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kern.name, decoderRows, sh[0], sh[1]), func(b *testing.B) {
				benchDecoder(b, [][2]int{sh}, kern.gemms, kern.run)
			})
		}
		b.Run(kern.name+"/mix", func(b *testing.B) { benchDecoder(b, decoderMix, kern.gemms, kern.run) })
	}
}
