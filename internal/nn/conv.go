package nn

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// Conv2D is a 2-D convolution over NHWC input with weights laid out
// (KH, KW, InC, OutC). It is the primary fault-injection site for CNN
// workloads: in NVDLA the convolution pipeline (CDMA→CBUF→CMAC→CACC)
// executes exactly this operation.
type Conv2D struct {
	name      string
	KH, KW    int
	InC, OutC int
	Stride    int
	Pad       int
	Depthwise bool // when true, OutC == InC and weights are (KH, KW, InC, 1)

	W *tensor.Tensor
	B *tensor.Tensor // length OutC, may be nil

	codec numerics.Codec
	// wcache holds RoundSlice(W) so repeated forwards (and ComputeNeuron)
	// skip re-rounding the full weight tensor. atomic: a Network is shared
	// read-only across campaign shards; the recompute is idempotent.
	wcache atomic.Pointer[[]float32]
}

// roundedW returns the cached pre-rounded weight buffer, computing it once.
func (l *Conv2D) roundedW() []float32 {
	if p := l.wcache.Load(); p != nil {
		return *p
	}
	rw := l.codec.RoundSlice(l.W.Data())
	l.wcache.Store(&rw)
	return rw
}

// InvalidateWeights drops the rounded-weight cache. Call after mutating W.
func (l *Conv2D) InvalidateWeights() { l.wcache.Store(nil) }

// NewConv2D builds a convolution layer with zero weights; use InitRandom or
// assign W/B to populate parameters.
func NewConv2D(name string, kh, kw, inC, outC, stride, pad int, codec numerics.Codec) *Conv2D {
	if kh <= 0 || kw <= 0 || inC <= 0 || outC <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid Conv2D geometry k=%dx%d c=%d->%d s=%d p=%d", kh, kw, inC, outC, stride, pad))
	}
	return &Conv2D{
		name: name, KH: kh, KW: kw, InC: inC, OutC: outC, Stride: stride, Pad: pad,
		W:     tensor.New(kh, kw, inC, outC),
		B:     tensor.New(outC),
		codec: codec,
	}
}

// NewDepthwiseConv2D builds a depthwise convolution (one filter per channel),
// the building block of MobileNet.
func NewDepthwiseConv2D(name string, kh, kw, c, stride, pad int, codec numerics.Codec) *Conv2D {
	l := NewConv2D(name, kh, kw, c, c, stride, pad, codec)
	l.Depthwise = true
	l.W = tensor.New(kh, kw, c, 1)
	return l
}

// InitRandom fills weights with N(0, stddev²) and biases with small values.
func (l *Conv2D) InitRandom(rng *rand.Rand, stddev float32) *Conv2D {
	l.W.RandNormal(rng, stddev)
	if l.B != nil {
		l.B.RandNormal(rng, stddev/4)
	}
	l.InvalidateWeights()
	return l
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.name }

// Kind implements Site.
func (l *Conv2D) Kind() Kind { return KindConv }

// Codec implements Site.
func (l *Conv2D) Codec() numerics.Codec { return l.codec }

// OutputShape returns the NHWC output shape for an NHWC input shape.
func (l *Conv2D) OutputShape(in []int) []int {
	n, h, w := in[0], in[1], in[2]
	oh := (h+2*l.Pad-l.KH)/l.Stride + 1
	ow := (w+2*l.Pad-l.KW)/l.Stride + 1
	return []int{n, oh, ow, l.OutC}
}

// Forward implements Layer. The fast path below pre-rounds both operand
// buffers once and accumulates with MulPre; it is bit-identical to calling
// ComputeNeuron per output neuron (the per-channel accumulation order is the
// same, and MulPre(Round(a), Round(b)) == Mul(a, b)).
func (l *Conv2D) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(3) != l.InC {
		panic(fmt.Sprintf("nn: %s expects NHWC input with %d channels, got %v", l.name, l.InC, x.Shape()))
	}
	return ctx.exec(l, func() *tensor.Tensor {
		os := l.OutputShape(x.Shape())
		out := ctx.newTensor(os...)
		op := &Operands{In: x, W: l.W, B: l.B, Out: out}

		rin := l.codec.RoundSlice(x.Data())
		convForward(l.kernelArgs(x, out, rin, 0))
		ctx.fire(l, op)
		return out
	}, func(out *tensor.Tensor) *Operands {
		return &Operands{In: x, W: l.W, B: l.B, Out: out}
	}, x)
}

// kernelArgs assembles the tiled-kernel argument block for one forward pass
// over input x into out. rin is the pre-rounded input buffer (a row window
// when rinOff is non-zero; see convArgs.rinOff).
func (l *Conv2D) kernelArgs(x, out *tensor.Tensor, rin []float32, rinOff int) *convArgs {
	os := out.Shape()
	var bias []float32
	if l.B != nil {
		bias = l.B.Data()
	}
	return &convArgs{
		rin: rin, rw: l.roundedW(), bias: bias, out: out.Data(), rinOff: rinOff,
		n: x.Dim(0), h: x.Dim(1), w: x.Dim(2), inC: l.InC,
		oh: os[1], ow: os[2], outC: os[3],
		kh: l.KH, kw: l.KW, stride: l.Stride, pd: l.Pad,
		depthwise: l.Depthwise, fp16: l.codec.Precision() == numerics.FP16,
		codec: l.codec,
	}
}

// ComputeNeuron implements Site. The accumulation order is (kh, kw, ic)
// row-major, matching both the software convolution and the rtlsim MAC
// sequencing so that faulty values agree bit-for-bit.
func (l *Conv2D) ComputeNeuron(op *Operands, idx []int, ov *Override) float32 {
	b, oy, ox, oc := idx[0], idx[1], idx[2], idx[3]
	in := op.In
	w := op.W
	h, wd := in.Dim(1), in.Dim(2)
	// Flat row-major indexing throughout: this runs once per affected neuron
	// per datapath fault, and the variadic At/Offset accessors allocate their
	// index slice per call — a quarter of campaign wall clock before this.
	ind, wdat := in.Data(), w.Data()
	wc, woc := w.Dim(2), w.Dim(3)
	// Flat override targets; -1 (matching no offset) when the override does
	// not touch that operand, so the hot loop tests one integer per value.
	inFlat, wFlat := -1, -1
	if ov != nil {
		switch ov.Kind {
		case OperandInput:
			inFlat = ov.Flat
		case OperandWeight:
			wFlat = ov.Flat
		}
	}
	// Reuse the pre-rounded weight cache when recomputing against the layer's
	// own weights: MulPre(Round(a), Round(b)) == Mul(a, b) for every codec,
	// so the result is bit-identical.
	var rw []float32
	if w == l.W {
		rw = l.roundedW()
	}
	var acc float32
	for ky := 0; ky < l.KH; ky++ {
		iy := oy*l.Stride + ky - l.Pad
		if iy < 0 || iy >= h {
			continue
		}
		for kx := 0; kx < l.KW; kx++ {
			ix := ox*l.Stride + kx - l.Pad
			if ix < 0 || ix >= wd {
				continue
			}
			base := ((b*h+iy)*wd + ix) * l.InC
			if l.Depthwise {
				ioff := base + oc
				av := ind[ioff]
				if ioff == inFlat {
					av = ov.Value
				}
				woff := ((ky*l.KW+kx)*wc + oc) * woc
				switch {
				case woff == wFlat:
					acc += l.codec.Mul(av, ov.Value)
				case rw != nil:
					acc += l.codec.MulPre(l.codec.Round(av), rw[woff])
				default:
					acc += l.codec.Mul(av, wdat[woff])
				}
				continue
			}
			wbase := (ky*l.KW + kx) * wc * woc
			for ic := 0; ic < l.InC; ic++ {
				av := ind[base+ic]
				if base+ic == inFlat {
					av = ov.Value
				}
				woff := wbase + ic*woc + oc
				switch {
				case woff == wFlat:
					acc += l.codec.Mul(av, ov.Value)
				case rw != nil:
					acc += l.codec.MulPre(l.codec.Round(av), rw[woff])
				default:
					acc += l.codec.Mul(av, wdat[woff])
				}
			}
		}
	}
	if op.B != nil {
		bv := op.B.At(oc)
		if ov != nil && ov.Kind == OperandBias && oc == ov.Flat {
			bv = ov.Value
		}
		acc += bv
	}
	return l.codec.Saturate(acc)
}

// NeuronsUsingOperand implements Site.
func (l *Conv2D) NeuronsUsingOperand(op *Operands, kind OperandKind, flat int) [][]int {
	os := l.OutputShape(op.In.Shape())
	n, oh, ow := os[0], os[1], os[2]
	var out [][]int
	switch kind {
	case OperandInput:
		ii := op.In.Unflatten(flat)
		b, iy, ix := ii[0], ii[1], ii[2]
		ic := ii[3]
		// Output rows oy with oy*Stride + ky - Pad == iy for some ky in [0,KH).
		for oy := 0; oy < oh; oy++ {
			ky := iy - oy*l.Stride + l.Pad
			if ky < 0 || ky >= l.KH {
				continue
			}
			for ox := 0; ox < ow; ox++ {
				kx := ix - ox*l.Stride + l.Pad
				if kx < 0 || kx >= l.KW {
					continue
				}
				if l.Depthwise {
					out = append(out, []int{b, oy, ox, ic})
					continue
				}
				for oc := 0; oc < l.OutC; oc++ {
					out = append(out, []int{b, oy, ox, oc})
				}
			}
		}
	case OperandWeight:
		wi := l.W.Unflatten(flat)
		if l.Depthwise {
			c := wi[2]
			for b := 0; b < n; b++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						out = append(out, []int{b, oy, ox, c})
					}
				}
			}
			break
		}
		oc := wi[3]
		// Every spatial position of output channel oc, all batches.
		for b := 0; b < n; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					out = append(out, []int{b, oy, ox, oc})
				}
			}
		}
	case OperandBias:
		oc := flat
		for b := 0; b < n; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					out = append(out, []int{b, oy, ox, oc})
				}
			}
		}
	case OperandOutput:
		out = append(out, op.Out.Unflatten(flat))
	}
	return out
}
