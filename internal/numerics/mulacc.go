package numerics

// mulacc.go holds the fused FP16 multiply-round-accumulate row kernels that
// the nn tiles run in their inner loops. Each kernel computes exactly what a
// plain loop of `acc += RoundHalf(x*w)` computes, bit for bit, in the same
// order; it only avoids one function call per MAC by expanding RoundHalf's
// normal-range fast path inline. ±0 products round to themselves and are
// added inline too, so only subnormal, overflowing and non-finite products
// reach the scalar RoundHalf. FuzzMulAccHalf checks every kernel against
// RoundHalfRef.

import "math"

const (
	// halfNormLo is 2^-14, the smallest normal half, as float32 bits.
	halfNormLo = 0x38800000
	// halfNormSpan reaches from halfNormLo up to 65520, the smallest
	// magnitude that rounds past HalfMax.
	halfNormSpan = 0x477ff000 - halfNormLo
)

// inHalfNormal reports whether the float32 bit pattern b lies in the range
// RoundHalf's fast path covers: magnitudes that round to a normal half no
// larger than HalfMax. ±0, subnormals, overflow and Inf/NaN lie outside. One
// unsigned compare does the work of RoundHalf's exponent and overflow tests.
func inHalfNormal(b uint32) bool { return b&0x7fffffff-halfNormLo < halfNormSpan }

// roundNormal is RoundHalf's fast path for a bit pattern inside
// inHalfNormal: round-to-nearest-even on the 13 mantissa bits a half drops.
func roundNormal(b uint32) float32 {
	return math.Float32frombits((b + 0x0fff + (b >> 13 & 1)) &^ 0x1fff)
}

// AxpyHalf computes acc[i] += RoundHalf(a*w[i]) for every i of w: one
// activation times a weight row, accumulated into a row of outputs. acc must
// be at least as long as w.
func AxpyHalf(acc []float32, a float32, w []float32) {
	acc = acc[:len(w)]
	for i, wv := range w {
		p := a * wv
		if b := math.Float32bits(p); inHalfNormal(b) {
			p = roundNormal(b)
		} else if p != 0 {
			p = RoundHalf(p)
		}
		acc[i] += p
	}
}

// MulAccHalf computes acc[i] += RoundHalf(x[i]*w[i]) for every i of w, the
// elementwise form a depthwise convolution accumulates per kernel tap. acc
// and x must be at least as long as w.
func MulAccHalf(acc, x, w []float32) {
	acc = acc[:len(w)]
	x = x[:len(w)]
	for i, wv := range w {
		p := x[i] * wv
		if b := math.Float32bits(p); inHalfNormal(b) {
			p = roundNormal(b)
		} else if p != 0 {
			p = RoundHalf(p)
		}
		acc[i] += p
	}
}

// DotHalf returns acc + Σ RoundHalf(x[i]*w[i]), accumulated in ascending i,
// the form a matmul against a transposed operand accumulates per output. x
// must be at least as long as w.
func DotHalf(acc float32, x, w []float32) float32 {
	x = x[:len(w)]
	for i, wv := range w {
		p := x[i] * wv
		if b := math.Float32bits(p); inHalfNormal(b) {
			p = roundNormal(b)
		} else if p != 0 {
			p = RoundHalf(p)
		}
		acc += p
	}
	return acc
}

// roundHalfInto sets dst[i] = RoundHalf(src[i]) for every i of src with the
// same inline fast path. dst must be at least as long as src.
func roundHalfInto(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		if b := math.Float32bits(v); inHalfNormal(b) {
			v = roundNormal(b)
		} else if v != 0 {
			v = RoundHalf(v)
		}
		dst[i] = v
	}
}
