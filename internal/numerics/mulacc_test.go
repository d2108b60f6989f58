package numerics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b have the same bit pattern, counting any
// two NaNs as equal. Go lets the compiler swap the operands of a float add,
// and the hardware propagates the first operand's NaN, so which of two NaN
// addends survives is not a property of the source; every other result,
// −0 and ±Inf included, must match bit for bit.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (math.IsNaN(float64(a)) && math.IsNaN(float64(b)))
}

// checkMulAcc runs every fused row kernel over one input and requires each to
// match a plain loop of `acc += RoundHalfRef(x*w)` bit for bit (sameBits).
// x doubles as the axpy accumulator row, so accumulators take every value the
// inputs do (−0, ±Inf and NaN included).
func checkMulAcc(t *testing.T, a, acc0 float32, x, w []float32) {
	t.Helper()
	same := func(kernel string, i int, got, want float32) {
		t.Helper()
		if !sameBits(got, want) {
			t.Fatalf("%s[%d]: got %v [%#08x], want %v [%#08x] (a=%v acc0=%v x=%v w=%v)",
				kernel, i, got, math.Float32bits(got), want, math.Float32bits(want), a, acc0, x[i], w[i])
		}
	}

	acc := append([]float32(nil), x...)
	AxpyHalf(acc, a, w)
	for i := range w {
		same("AxpyHalf", i, acc[i], x[i]+RoundHalfRef(a*w[i]))
	}

	for i := range acc {
		acc[i] = acc0
	}
	MulAccHalf(acc, x, w)
	for i := range w {
		same("MulAccHalf", i, acc[i], acc0+RoundHalfRef(x[i]*w[i]))
	}

	want := acc0
	for i := range w {
		want += RoundHalfRef(x[i] * w[i])
	}
	if got := DotHalf(acc0, x, w); !sameBits(got, want) {
		t.Fatalf("DotHalf: got %v [%#08x], want %v [%#08x] (acc0=%v x=%v w=%v)",
			got, math.Float32bits(got), want, math.Float32bits(want), acc0, x, w)
	}

	MustCodec(FP16, 0).RoundInto(acc, w)
	for i := range w {
		same("RoundInto", i, acc[i], RoundHalfRef(w[i]))
	}
}

// pairsFromBytes decodes data as little-endian (x, w) float32 bit-pattern
// pairs, ignoring a trailing partial pair.
func pairsFromBytes(data []byte) (x, w []float32) {
	for ; len(data) >= 8; data = data[8:] {
		x = append(x, math.Float32frombits(binary.LittleEndian.Uint32(data)))
		w = append(w, math.Float32frombits(binary.LittleEndian.Uint32(data[4:])))
	}
	return x, w
}

// pairBytes encodes (x, w) pairs in the layout pairsFromBytes reads.
func pairBytes(xw ...float32) []byte {
	b := make([]byte, 0, 4*len(xw))
	for _, v := range xw {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// FuzzMulAccHalf fuzzes the fused FP16 row kernels (AxpyHalf, MulAccHalf,
// DotHalf) and Codec.RoundInto against RoundHalfRef. a is the axpy
// activation and acc0 the starting accumulator, both as float32 bit
// patterns; data holds the (x, w) pairs. The committed corpus under
// testdata/fuzz/FuzzMulAccHalf covers subnormal, overflowing, ±0, ±Inf and
// NaN products.
func FuzzMulAccHalf(f *testing.F) {
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	f.Add(math.Float32bits(1.5), uint32(0), pairBytes(0.25, -3, 1e-5, 7, 300, 300, 0, inf))
	f.Add(math.Float32bits(negZero), math.Float32bits(negZero), pairBytes(float32(math.NaN()), 1, negZero, 2, 6e-8, 0.5))
	f.Fuzz(func(t *testing.T, a, acc0 uint32, data []byte) {
		x, w := pairsFromBytes(data)
		checkMulAcc(t, math.Float32frombits(a), math.Float32frombits(acc0), x, w)
	})
}

// TestMulAccHalfSweep runs the row kernels over RoundHalf's boundary sweep:
// with a = 1 every product is a sweep value, so the kernels' inline rounding
// sees every exponent, tie and overflow case the scalar fast path is tested
// on. x is the sweep shifted by one, so elementwise products and the
// accumulators mix magnitudes too.
func TestMulAccHalfSweep(t *testing.T) {
	const chunk = 4096
	var vals []float32
	flush := func() {
		x := append(vals[1:len(vals):len(vals)], vals[0])
		checkMulAcc(t, 1, 0, x, vals)
		vals = vals[:0]
	}
	roundingSweep(func(f float32) {
		if vals = append(vals, f); len(vals) == chunk {
			flush()
		}
	})
	if len(vals) > 0 {
		flush()
	}
}

// TestMulAccHalfSpecials crosses every special class — ±0, subnormal
// products, overflowing products, ±Inf, NaN, ordinary normals — as
// activation, weight and starting accumulator.
func TestMulAccHalfSpecials(t *testing.T) {
	specials := []float32{0, float32(math.Copysign(0, -1)), 1e-6, -3e-8, 250, -300, 65504,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1, -0.75}
	for _, a := range specials {
		for _, acc0 := range specials {
			var x, w []float32
			for _, xv := range specials {
				for _, wv := range specials {
					x, w = append(x, xv), append(w, wv)
				}
			}
			checkMulAcc(t, a, acc0, x, w)
		}
	}
}

// BenchmarkAxpyHalf measures the conv/dense inner row: one activation times
// a 64-wide weight row, accumulated with FP16 product rounding.
func BenchmarkAxpyHalf(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := make([]float32, 64)
	for i := range w {
		w[i] = RoundHalf(float32(rng.NormFloat64() * 0.2))
	}
	acc := make([]float32, len(w))
	a := RoundHalf(0.7)
	b.SetBytes(int64(4 * len(w)))
	for i := 0; i < b.N; i++ {
		AxpyHalf(acc, a, w)
	}
}
