package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// kernelCodecs covers every datapath precision the zoo instantiates: both
// float widths (FP16 exercises the RoundHalf product-rounding path) and both
// quantized widths (which exercise Saturate clamping).
func kernelCodecs() []numerics.Codec {
	return []numerics.Codec{
		numerics.MustCodec(numerics.FP32, 0),
		numerics.MustCodec(numerics.FP16, 0),
		numerics.MustCodec(numerics.INT16, 8),
		numerics.MustCodec(numerics.INT8, 8),
	}
}

// neuronwise is the kernel-level reference: it computes every output of site
// one neuron at a time through ComputeNeuron, the path the fault models
// already rely on for bit-exactness. Callers pass a cloned weight tensor so
// ComputeNeuron skips the layer's pre-rounded weight cache and takes the full
// codec.Mul rounding path.
func neuronwise(site Site, op *Operands, shape []int) *tensor.Tensor {
	out := tensor.New(shape...)
	od := out.Data()
	for i := range od {
		od[i] = site.ComputeNeuron(op, out.Unflatten(i), nil)
	}
	return out
}

// runKernelModes evaluates f once per tiled-kernel configuration — single-
// threaded and with forced goroutine bands (the parallel path is unreachable
// on a single-CPU machine without the force) — and requires every output to
// be bit-identical to want.
func runKernelModes(t *testing.T, label string, want *tensor.Tensor, f func() *tensor.Tensor) {
	t.Helper()
	modes := []struct {
		name    string
		workers int32
	}{
		{"tiled-serial", 1},
		{"tiled-4-bands", 4},
		{"tiled-7-bands", 7}, // ragged band split
	}
	for _, m := range modes {
		forceKernelWorkers.Store(m.workers)
		got := f()
		forceKernelWorkers.Store(0)
		if !want.SameShape(got) {
			t.Fatalf("%s/%s: shape %v, reference %v", label, m.name, got.Shape(), want.Shape())
		}
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("%s/%s: output[%d] = %v, reference %v", label, m.name, i, v, want.Data()[i])
			}
		}
	}
}

// kernelCase is one input/weight variant a kernel test runs per geometry and
// codec. The ReLU-sparse variants reach the zero-skip path; the non-finite
// weight variants must turn it off, since 0·Inf and 0·NaN are NaN.
type kernelCase struct {
	name   string
	sparse bool    // about half the inputs +0, some of them −0
	weight float32 // written over one weight when non-zero
}

func kernelCases() []kernelCase {
	return []kernelCase{
		{"normal", false, 0},
		{"relu-sparse", true, 0},
		{"relu-sparse-inf-weight", true, float32(math.Inf(1))},
		{"relu-sparse-nan-weight", true, float32(math.NaN())},
	}
}

// apply makes x ReLU-sparse when the case asks for it: negative draws become
// +0, and every eighth of them −0.
func (kc kernelCase) apply(x *tensor.Tensor) {
	if !kc.sparse {
		return
	}
	negZero := float32(math.Copysign(0, -1))
	for i, v := range x.Data() {
		if v < 0 {
			x.Data()[i] = 0
			if i%8 == 0 {
				x.Data()[i] = negZero
			}
		}
	}
}

// poison writes the case's non-finite weight over the middle element of w.
func (kc kernelCase) poison(w *tensor.Tensor) {
	if kc.weight != 0 {
		w.Data()[w.Size()/2] = kc.weight
	}
}

// TestConvKernelEquivalence sweeps convolution geometries — padded, strided,
// 1×1, depthwise, and one large enough to clear parallelMACThreshold so the
// forced goroutine bands actually engage — across every codec and every
// kernelCase.
func TestConvKernelEquivalence(t *testing.T) {
	geoms := []struct {
		name                         string
		kh, kw, inC, outC, stride, p int
		h, w                         int
		depthwise                    bool
	}{
		{"3x3-pad", 3, 3, 4, 6, 1, 1, 9, 9, false},
		{"5x3-stride2", 5, 3, 3, 5, 2, 2, 11, 13, false},
		{"1x1", 1, 1, 8, 8, 1, 0, 6, 6, false},
		{"depthwise", 3, 3, 8, 8, 1, 1, 10, 10, true},
		{"large-banded", 3, 3, 16, 32, 1, 1, 24, 24, false},
		{"depthwise-banded", 3, 3, 48, 48, 1, 1, 32, 32, true},
	}
	for _, g := range geoms {
		for _, codec := range kernelCodecs() {
			for _, kc := range kernelCases() {
				label := fmt.Sprintf("conv/%s/%s/%s", g.name, codec.Precision(), kc.name)
				rng := rand.New(rand.NewSource(21))
				var l *Conv2D
				if g.depthwise {
					l = NewDepthwiseConv2D("c", g.kh, g.kw, g.inC, g.stride, g.p, codec)
					l.W.RandNormal(rng, 1)
					l.B.RandNormal(rng, 0.25)
				} else {
					l = NewConv2D("c", g.kh, g.kw, g.inC, g.outC, g.stride, g.p, codec).InitRandom(rng, 1)
				}
				kc.poison(l.W)
				l.InvalidateWeights()
				x := tensor.New(2, g.h, g.w, g.inC)
				x.RandNormal(rng, 1)
				kc.apply(x)
				want := neuronwise(l, &Operands{In: x, W: l.W.Clone(), B: l.B}, l.OutputShape(x.Shape()))
				runKernelModes(t, label, want, func() *tensor.Tensor { return l.Forward(x, nil) })
			}
		}
	}
}

// TestDenseKernelEquivalence covers small and band-splitting dense layers
// across every codec and kernelCase, including a no-bias variant.
func TestDenseKernelEquivalence(t *testing.T) {
	geoms := []struct {
		name    string
		in, out int
		batch   int
		bias    bool
	}{
		{"small", 7, 5, 1, true},
		{"no-bias", 16, 9, 3, false},
		{"large-banded", 512, 300, 1, true},
	}
	for _, g := range geoms {
		for _, codec := range kernelCodecs() {
			for _, kc := range kernelCases() {
				label := fmt.Sprintf("dense/%s/%s/%s", g.name, codec.Precision(), kc.name)
				rng := rand.New(rand.NewSource(22))
				l := NewDense("d", g.in, g.out, codec).InitRandom(rng, 1)
				if !g.bias {
					l.B = nil
				}
				kc.poison(l.W)
				l.InvalidateWeights()
				x := tensor.New(g.batch, g.in)
				x.RandNormal(rng, 1)
				kc.apply(x)
				want := neuronwise(l, &Operands{In: x, W: l.W.Clone(), B: l.B}, []int{g.batch, g.out})
				runKernelModes(t, label, want, func() *tensor.Tensor { return l.Forward(x, nil) })
			}
		}
	}
}

// TestMatMulKernelEquivalence covers plain and transposed-B matmuls with and
// without output scaling, including a product large enough to band, across
// every codec and kernelCase (the non-finite value lands in operand B).
func TestMatMulKernelEquivalence(t *testing.T) {
	geoms := []struct {
		name       string
		m, k, n    int
		transposeB bool
		scale      float32
	}{
		{"plain", 5, 7, 6, false, 0},
		{"transposed-scaled", 6, 8, 5, true, 0.125},
		{"large-banded", 64, 64, 64, false, 0},
		{"large-banded-T", 64, 64, 64, true, 0.5},
	}
	for _, g := range geoms {
		for _, codec := range kernelCodecs() {
			for _, kc := range kernelCases() {
				label := fmt.Sprintf("matmul/%s/%s/%s", g.name, codec.Precision(), kc.name)
				rng := rand.New(rand.NewSource(23))
				site := NewMatMulSite("mm", g.transposeB, g.scale, codec)
				a := tensor.New(g.m, g.k)
				a.RandNormal(rng, 1)
				kc.apply(a)
				bd0, bd1 := g.k, g.n
				if g.transposeB {
					bd0, bd1 = g.n, g.k
				}
				b := tensor.New(bd0, bd1)
				b.RandNormal(rng, 1)
				kc.poison(b)
				want := neuronwise(site, &Operands{In: a, W: b}, []int{g.m, g.n})
				runKernelModes(t, label, want, func() *tensor.Tensor { return site.Run(a, b, nil) })
			}
		}
	}
}

// TestKernelTileCounting checks that every forward accounts at least one tile
// and that forced bands multiply the count — the counter feeding the
// telemetry Kernels block.
func TestKernelTileCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	l := NewConv2D("c", 3, 3, 16, 32, 1, 1, numerics.MustCodec(numerics.FP16, 0)).InitRandom(rng, 1)
	x := tensor.New(1, 24, 24, 16)
	x.RandNormal(rng, 1)

	base := TileCount()
	l.Forward(x, nil)
	serial := TileCount() - base
	if serial < 1 {
		t.Fatalf("serial forward executed %d tiles, want >= 1", serial)
	}
	forceKernelWorkers.Store(4)
	defer forceKernelWorkers.Store(0)
	base = TileCount()
	l.Forward(x, nil)
	if banded := TileCount() - base; banded < 4 {
		t.Errorf("4-band forward executed %d tiles, want >= 4", banded)
	}
}
