package nn

// kernels.go implements the tiled compute kernels behind Conv2D, Dense and
// MatMulSite. Each kernel computes an arbitrary rectangular tile of the
// output tensor with hoisted slice bounds and flattened index math (verified
// bounds-check-free with `go build -gcflags=-d=ssa/check_bce`), so the same
// code serves three callers:
//
//   - the full forward pass (the whole output is one tile, optionally split
//     into row bands across goroutines when GOMAXPROCS allows);
//   - the replay engine's region sweep, which recomputes only the output box
//     reached by a fault's dirty input region (region.go);
//   - the kernel equivalence tests, which compare every kernel against
//     per-neuron Site.ComputeNeuron.
//
// Bit-exactness contract: for every output neuron the accumulation order over
// (ky, kx, ic) — or p for matmul, i for dense — is identical to
// Site.ComputeNeuron, and FP16 products are rounded through numerics.RoundHalf
// exactly where codec.Mul rounds them. Tiling only changes which outputs are
// computed, never how one output is computed, so any tile decomposition
// produces bit-identical results.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fidelity/internal/numerics"
)

// tileCount counts kernel tile executions process-wide (one full forward is
// at least one tile; goroutine bands and region sweeps add more). Telemetry
// reads it to report tiling activity.
var tileCount atomic.Int64

// TileCount returns the cumulative number of kernel tiles executed.
func TileCount() int64 { return tileCount.Load() }

// forceKernelWorkers overrides the goroutine-tiling worker count in tests, so
// the parallel band path is exercised even on single-CPU machines.
var forceKernelWorkers atomic.Int32

// kernelWorkers returns how many goroutines a kernel may fan out to.
func kernelWorkers() int {
	if w := int(forceKernelWorkers.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// parallelMACThreshold is the minimum per-forward MAC estimate before a
// kernel fans out to goroutine row bands; below it the spawn overhead wins.
const parallelMACThreshold = 1 << 17

// convArgs bundles the resolved geometry and pre-rounded operand buffers of
// one Conv2D forward pass. rinOff is subtracted from every flattened input
// index, letting rin be a row window rather than the full tensor (the region
// sweep rounds only the rows a tile reads).
type convArgs struct {
	rin, rw, bias, out []float32
	rinOff             int
	n, h, w, inC       int
	oh, ow, outC       int
	kh, kw, stride, pd int
	depthwise, fp16    bool
	codec              numerics.Codec
}

// convTile computes output rows [oy0,oy1) × columns [ox0,ox1) of batch bi,
// all output channels, accumulating each neuron in (ky, kx, ic) order. accs
// must hold at least outC elements and is scratch owned by the caller (one
// per goroutine band).
func convTile(a *convArgs, bi, oy0, oy1, ox0, ox1 int, accs []float32) {
	tileCount.Add(1)
	rin, rw, out := a.rin, a.rw, a.out
	inC, outC := a.inC, a.outC
	kh, kw, stride, pd := a.kh, a.kw, a.stride, a.pd
	h, w := a.h, a.w
	accs = accs[:outC]
	var bias []float32
	if a.bias != nil {
		bias = a.bias[:outC]
	}
	for oy := oy0; oy < oy1; oy++ {
		// Clip the kernel row range so iy = oy*stride + ky - pd stays inside
		// [0, h); ComputeNeuron skips the same iterations one by one.
		kyLo, kyHi := 0, kh
		if iy := oy*stride - pd; iy < 0 {
			kyLo = -iy
		}
		if over := oy*stride - pd + kh - h; over > 0 {
			kyHi = kh - over
		}
		for ox := ox0; ox < ox1; ox++ {
			kxLo, kxHi := 0, kw
			if ix := ox*stride - pd; ix < 0 {
				kxLo = -ix
			}
			if over := ox*stride - pd + kw - w; over > 0 {
				kxHi = kw - over
			}
			for c := range accs {
				accs[c] = 0
			}
			for ky := kyLo; ky < kyHi; ky++ {
				iy := oy*stride + ky - pd
				rowBase := ((bi*h+iy)*w)*inC - a.rinOff
				if a.depthwise {
					for kx := kxLo; kx < kxHi; kx++ {
						ix := ox*stride + kx - pd
						inBase := rowBase + ix*inC
						wBase := (ky*kw + kx) * inC
						wrow := rw[wBase : wBase+inC]
						// Pin irow/ac to wrow's length so the inner loop is
						// bounds-check free (outC == inC for depthwise).
						irow := rin[inBase : inBase+inC][:len(wrow)]
						ac := accs[:len(wrow)]
						if a.fp16 {
							for c, wv := range wrow {
								ac[c] += numerics.RoundHalf(irow[c] * wv)
							}
						} else {
							for c, wv := range wrow {
								ac[c] += irow[c] * wv
							}
						}
					}
					continue
				}
				for kx := kxLo; kx < kxHi; kx++ {
					ix := ox*stride + kx - pd
					inBase := rowBase + ix*inC
					irow := rin[inBase : inBase+inC]
					wBase := (ky*kw + kx) * inC * outC
					if a.fp16 {
						for ic, av := range irow {
							wo := wBase + ic*outC
							wrow := rw[wo : wo+outC]
							for c, wv := range wrow {
								accs[c] += numerics.RoundHalf(av * wv)
							}
						}
					} else {
						for ic, av := range irow {
							wo := wBase + ic*outC
							wrow := rw[wo : wo+outC]
							for c, wv := range wrow {
								accs[c] += av * wv
							}
						}
					}
				}
			}
			outBase := ((bi*a.oh+oy)*a.ow + ox) * outC
			orow := out[outBase : outBase+outC]
			if bias != nil {
				for c := range orow {
					orow[c] = a.codec.Saturate(accs[c] + bias[c])
				}
			} else {
				for c := range orow {
					orow[c] = a.codec.Saturate(accs[c])
				}
			}
		}
	}
}

// convForward runs the tiled convolution over the whole output, splitting the
// output rows of each batch image into goroutine bands when the machine and
// the layer are big enough. Bands write disjoint output rows and accumulate
// independently, so the split cannot change any output bit.
func convForward(a *convArgs) {
	workers := kernelWorkers()
	macs := a.oh * a.ow * a.outC * a.kh * a.kw
	if !a.depthwise {
		macs *= a.inC
	}
	if workers > a.oh {
		workers = a.oh
	}
	if workers <= 1 || macs < parallelMACThreshold {
		accs := make([]float32, a.outC)
		for bi := 0; bi < a.n; bi++ {
			convTile(a, bi, 0, a.oh, 0, a.ow, accs)
		}
		return
	}
	var wg sync.WaitGroup
	band := (a.oh + workers - 1) / workers
	for g := 0; g < workers; g++ {
		oy0 := g * band
		oy1 := oy0 + band
		if oy1 > a.oh {
			oy1 = a.oh
		}
		if oy0 >= oy1 {
			break
		}
		wg.Add(1)
		go func(oy0, oy1 int) {
			defer wg.Done()
			accs := make([]float32, a.outC)
			for bi := 0; bi < a.n; bi++ {
				convTile(a, bi, oy0, oy1, 0, a.ow, accs)
			}
		}(oy0, oy1)
	}
	wg.Wait()
}

// denseArgs bundles one Dense forward pass for the tiled kernel.
type denseArgs struct {
	rin, rw, bias, out []float32
	batch, in, outN    int
	fp16               bool
	codec              numerics.Codec
}

// denseTile computes output rows [b0,b1) × columns [o0,o1), accumulating each
// neuron over the input features in ascending order. The out buffer must be
// zeroed over the tile (accumulation happens in place, as in the reference).
func denseTile(a *denseArgs, b0, b1, o0, o1 int) {
	tileCount.Add(1)
	rin, rw, out := a.rin, a.rw, a.out
	in, outN := a.in, a.outN
	for b := b0; b < b1; b++ {
		orow := out[b*outN+o0 : b*outN+o1]
		irow := rin[b*in : (b+1)*in]
		if a.fp16 {
			for i, av := range irow {
				wrow := rw[i*outN+o0 : i*outN+o1][:len(orow)]
				for o, wv := range wrow {
					orow[o] += numerics.RoundHalf(av * wv)
				}
			}
		} else {
			for i, av := range irow {
				wrow := rw[i*outN+o0 : i*outN+o1][:len(orow)]
				for o, wv := range wrow {
					orow[o] += av * wv
				}
			}
		}
		if a.bias != nil {
			bias := a.bias[o0:o1]
			for o := range orow {
				orow[o] = a.codec.Saturate(orow[o] + bias[o])
			}
		} else {
			for o := range orow {
				orow[o] = a.codec.Saturate(orow[o])
			}
		}
	}
}

// denseForward runs the tiled dense kernel, splitting output columns across
// goroutines for large layers (columns, not rows: inference batch is 1).
func denseForward(a *denseArgs) {
	workers := kernelWorkers()
	if workers > a.outN {
		workers = a.outN
	}
	if workers <= 1 || a.batch*a.in*a.outN < parallelMACThreshold {
		denseTile(a, 0, a.batch, 0, a.outN)
		return
	}
	var wg sync.WaitGroup
	band := (a.outN + workers - 1) / workers
	for g := 0; g < workers; g++ {
		o0 := g * band
		o1 := o0 + band
		if o1 > a.outN {
			o1 = a.outN
		}
		if o0 >= o1 {
			break
		}
		wg.Add(1)
		go func(o0, o1 int) {
			defer wg.Done()
			denseTile(a, 0, a.batch, o0, o1)
		}(o0, o1)
	}
	wg.Wait()
}

// matmulArgs bundles one MatMulSite execution for the tiled kernel.
type matmulArgs struct {
	ra, rb, out []float32
	m, k, n     int
	transposeB  bool
	scaleOut    float32
	fp16        bool
	codec       numerics.Codec
}

// matmulTile computes output rows [i0,i1) × columns [j0,j1), accumulating
// each neuron over p in ascending order. With TransposeB both operand rows
// are contiguous, so the kernel runs j outer / p inner as a dot product —
// same per-output order, far better locality than the reference's strided
// column walk. The out buffer must be zeroed over the tile.
func matmulTile(a *matmulArgs, i0, i1, j0, j1 int) {
	tileCount.Add(1)
	ra, rb, out := a.ra, a.rb, a.out
	k, n := a.k, a.n
	for i := i0; i < i1; i++ {
		arow := ra[i*k : (i+1)*k]
		orow := out[i*n+j0 : i*n+j1]
		if a.transposeB {
			for j := range orow {
				brow := rb[(j0+j)*k : (j0+j+1)*k][:len(arow)]
				acc := orow[j]
				if a.fp16 {
					for p, av := range arow {
						acc += numerics.RoundHalf(av * brow[p])
					}
				} else {
					for p, av := range arow {
						acc += av * brow[p]
					}
				}
				orow[j] = acc
			}
		} else {
			if a.fp16 {
				for p, av := range arow {
					brow := rb[p*n+j0 : p*n+j1][:len(orow)]
					for j, wv := range brow {
						orow[j] += numerics.RoundHalf(av * wv)
					}
				}
			} else {
				for p, av := range arow {
					brow := rb[p*n+j0 : p*n+j1][:len(orow)]
					for j, wv := range brow {
						orow[j] += av * wv
					}
				}
			}
		}
		for j := range orow {
			acc := orow[j]
			if a.scaleOut != 0 {
				acc *= a.scaleOut
			}
			orow[j] = a.codec.Saturate(acc)
		}
	}
}

// matmulForward runs the tiled matmul kernel, splitting output rows across
// goroutines for large products.
func matmulForward(a *matmulArgs) {
	workers := kernelWorkers()
	if workers > a.m {
		workers = a.m
	}
	if workers <= 1 || a.m*a.k*a.n < parallelMACThreshold {
		matmulTile(a, 0, a.m, 0, a.n)
		return
	}
	var wg sync.WaitGroup
	band := (a.m + workers - 1) / workers
	for g := 0; g < workers; g++ {
		i0 := g * band
		i1 := i0 + band
		if i1 > a.m {
			i1 = a.m
		}
		if i0 >= i1 {
			break
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			matmulTile(a, i0, i1, 0, a.n)
		}(i0, i1)
	}
	wg.Wait()
}
