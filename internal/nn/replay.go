package nn

import (
	"fidelity/internal/tensor"
)

// This file implements the incremental golden-replay execution engine.
//
// A fault-injection campaign runs millions of forward passes that are all
// tiny perturbations of one golden inference: every layer executed before
// the injected site is bit-identical to the golden trace, and after the
// injection only the fault's downstream cone can differ. The replay engine
// exploits this: a record-mode Context captures the golden output tensor of
// every layer execution, and a replay-mode Context then
//
//   - short-circuits every execution before the target visit by returning
//     its cached golden tensor in O(1);
//   - seeds the target execution from its golden output and fires the
//     injection hook without recomputing the layer (the fault models patch
//     outputs via ComputeNeuron, which only needs the operand tensors);
//   - after the injection, recomputes an execution only if one of its input
//     tensors is dirty, so off-path branches in DAG topologies (inception
//     branches, attention heads, residual shortcuts) skip too;
//   - canonicalizes recomputed outputs that converged back to their golden
//     values (ReLU, pooling and rounding mask faults constantly) onto the
//     golden tensor pointer, so skipping resumes downstream of the
//     convergence point.
//
// Cleanliness is tracked by pointer identity: a tensor is clean iff it is
// one of the recorded golden tensors. That makes the dirty test O(inputs)
// and exact — no epsilon comparisons, no false sharing. Bit-exactness with
// the full forward pass follows because skipped layers return the very
// values the full pass would recompute (the forward pass is deterministic)
// and recomputed layers run the identical code on identical inputs.

// ctxMode selects how a Context executes the layer graph.
type ctxMode int

const (
	// ctxPlain is the legacy mode: every layer computes.
	ctxPlain ctxMode = iota
	// ctxRecord computes every layer and records its output as golden.
	ctxRecord
	// ctxReplay memoizes against a recorded golden trace.
	ctxReplay
)

// execKey addresses one execution of one layer within a forward pass. glue
// distinguishes a composite layer's own work (residual add, branch concat,
// attention softmax) from leaf executions, which use separate visit
// counters.
type execKey struct {
	layer Layer
	visit int
	glue  bool
}

// GoldenTrace holds the recorded golden output of every layer execution of
// one forward pass, plus the pointer-identity set of clean tensors.
type GoldenTrace struct {
	outputs map[execKey]*tensor.Tensor
	golden  map[*tensor.Tensor]bool
	work    map[execKey]float64
}

// newGoldenTrace builds an empty trace.
func newGoldenTrace() *GoldenTrace {
	return &GoldenTrace{
		outputs: map[execKey]*tensor.Tensor{},
		golden:  map[*tensor.Tensor]bool{},
		work:    map[execKey]float64{},
	}
}

// put records the golden output of one execution.
func (g *GoldenTrace) put(key execKey, out *tensor.Tensor) {
	g.outputs[key] = out
	g.golden[out] = true
}

// MarkGolden adds t to the clean set. The network input must be marked so
// layers reading it directly (stems, branch roots) can prove their inputs
// clean.
func (g *GoldenTrace) MarkGolden(t *tensor.Tensor) { g.golden[t] = true }

// SetWork attaches a MAC-work estimate to a site execution, so replay can
// report how much compute each skip avoided.
func (g *GoldenTrace) SetWork(site Layer, visit int, work float64) {
	g.work[execKey{layer: site, visit: visit}] = work
}

// Arena recycles output buffers across replayed experiments. Buffers are
// keyed by element count and handed back wholesale by Reset at experiment
// boundaries, so a steady-state experiment allocates nothing. The arena is
// single-goroutine (one per injector); it is never used in record mode, so
// golden tensors are never arena-owned.
type Arena struct {
	free   map[int][][]float32
	lent   map[*tensor.Tensor][]float32
	reuses int64
}

// NewArena builds an empty arena.
func NewArena() *Arena {
	return &Arena{free: map[int][][]float32{}, lent: map[*tensor.Tensor][]float32{}}
}

// get returns a tensor backed by a recycled (not zeroed) buffer.
func (a *Arena) get(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	var buf []float32
	if bufs := a.free[n]; len(bufs) > 0 {
		buf = bufs[len(bufs)-1]
		a.free[n] = bufs[:len(bufs)-1]
		a.reuses++
	} else {
		buf = make([]float32, n)
	}
	t := tensor.FromSlice(buf, shape...)
	a.lent[t] = buf
	return t
}

// release returns t's buffer to the free list if the arena owns it; foreign
// tensors (views, golden outputs, ad-hoc allocations) are ignored.
func (a *Arena) release(t *tensor.Tensor) {
	buf, ok := a.lent[t]
	if !ok {
		return
	}
	delete(a.lent, t)
	a.free[len(buf)] = append(a.free[len(buf)], buf)
}

// Reset reclaims every buffer lent out since the last Reset. Call at an
// experiment boundary, when no tensor from the previous experiment is
// referenced anymore.
func (a *Arena) Reset() {
	// The free list hands out interchangeable buffers that every consumer
	// fully overwrites before reading, so reclaim order never reaches
	// results — and lent is keyed by pointer, so there is no stable sort key.
	//lint:allow maporder free-list reclaim order is unobservable: buffers are fully overwritten before any read
	for t, buf := range a.lent {
		a.free[len(buf)] = append(a.free[len(buf)], buf)
		delete(a.lent, t)
	}
}

// Reuses returns the cumulative count of buffer recycles.
func (a *Arena) Reuses() int64 { return a.reuses }

// ReplayStats counts what one replayed forward pass did and avoided.
type ReplayStats struct {
	// Skipped counts executions served from the golden trace.
	Skipped int
	// Recomputed counts executions that ran because an input was dirty.
	Recomputed int
	// Converged counts recomputed executions whose output matched golden
	// again (the fault was masked by then), re-enabling downstream skips.
	Converged int
	// RegionSwept counts the subset of Recomputed executions served by a
	// dirty-region sweep (only the output box reached by the fault was
	// recomputed; the rest was copied from golden).
	RegionSwept int
	// MACsAvoided estimates the MAC work of the skipped site executions.
	MACsAvoided float64
}

// NewRecordContext builds a context that computes every layer, fires hook at
// every site, and records each execution's output into the returned trace.
func NewRecordContext(hook Hook) (*Context, *GoldenTrace) {
	c := NewContext(hook)
	c.mode = ctxRecord
	c.execVisits = map[Layer]int{}
	c.glueVisits = map[Layer]int{}
	c.trace = newGoldenTrace()
	return c, c.trace
}

// NewReplayContext builds a reusable replay context over a recorded trace.
// Call SetTarget before each forward pass.
func NewReplayContext(trace *GoldenTrace, arena *Arena) *Context {
	c := &Context{
		mode:       ctxReplay,
		visits:     map[Layer]int{},
		execVisits: map[Layer]int{},
		glueVisits: map[Layer]int{},
		trace:      trace,
		arena:      arena,
		spans:      map[*tensor.Tensor]span{},
	}
	return c
}

// SetTarget arms the replay context for one experiment: hook fires exactly
// once, at the visit-th execution of site, with operands seeded from the
// golden trace. All per-pass state is reset.
func (c *Context) SetTarget(site Layer, visit int, hook Hook) {
	c.hook = hook
	c.target = site
	c.targetVisit = visit
	c.injected = false
	c.pendingFire = false
	clear(c.visits)
	clear(c.execVisits)
	clear(c.glueVisits)
	clear(c.spans)
	c.stats = ReplayStats{}
	c.hstats = HardenStats{}
}

// Stats returns the counters of the last replayed pass.
func (c *Context) Stats() ReplayStats { return c.stats }

// Detach disables the hook for the remainder of the pass. The injector calls
// this once its plan is applied, so the traversal stops paying for hook
// dispatch on every later visit.
func (c *Context) Detach() {
	if c != nil {
		c.hook = nil
	}
}

// newTensor allocates a layer output buffer: from the arena during replay,
// freshly otherwise (recorded golden tensors must outlive every experiment).
// The buffer is zeroed either way, since accumulating layers rely on it.
func (c *Context) newTensor(shape ...int) *tensor.Tensor {
	if c == nil || c.mode != ctxReplay || c.arena == nil {
		return tensor.New(shape...)
	}
	t := c.arena.get(shape...)
	clear(t.Data())
	return t
}

// seedFn builds the hook operand set around a golden-seeded output tensor,
// exactly as the layer's own compute path would.
type seedFn func(out *tensor.Tensor) *Operands

// exec wraps one leaf-layer execution. compute runs the layer for real (and
// fires the hook from inside, via Context.fire); seed, non-nil for sites,
// builds the operand set without computing. in lists the input tensors the
// execution reads, for the dirty test.
func (c *Context) exec(l Layer, compute func() *tensor.Tensor, seed seedFn, in ...*tensor.Tensor) *tensor.Tensor {
	if c == nil {
		return compute()
	}
	if c.mode == ctxPlain {
		out := compute()
		c.clampSite(l, out)
		return out
	}
	v := c.execVisits[l]
	c.execVisits[l] = v + 1
	key := execKey{layer: l, visit: v}
	if c.mode == ctxRecord {
		out := compute()
		c.clampSite(l, out)
		c.trace.put(key, out)
		return out
	}
	golden, ok := c.trace.outputs[key]
	if !ok {
		// Unrecorded execution (shouldn't happen for a trace of the same
		// input): fall back to computing it.
		out := compute()
		c.clampSite(l, out)
		return out
	}
	if !c.injected {
		if l == c.target && v == c.targetVisit {
			c.injected = true
			c.stats.MACsAvoided += c.trace.work[key]
			if seed != nil {
				// Seed the output from golden instead of recomputing: the
				// hook's fault models only read the operand tensors and
				// patch Out via ComputeNeuron.
				out := c.arena.get(golden.Shape()...)
				copy(out.Data(), golden.Data())
				op := seed(out)
				c.pendingVisit = v
				c.pendingFire = true
				c.fire(l, op)
				c.pendingFire = false
				c.clampSite(l, out)
				return c.canonicalize(out, golden)
			}
			c.pendingVisit = v
			c.pendingFire = true
			out := compute()
			c.pendingFire = false
			c.clampSite(l, out)
			return c.canonicalize(out, golden)
		}
		// Before the target everything is golden by construction.
		c.stats.Skipped++
		c.stats.MACsAvoided += c.trace.work[key]
		return golden
	}
	if c.allGolden(in) {
		// Off the fault's downstream cone: clean inputs, golden output.
		c.stats.Skipped++
		c.stats.MACsAvoided += c.trace.work[key]
		return golden
	}
	if out, handled := c.regionExec(l, key, golden, in); handled {
		return out
	}
	out := compute()
	c.stats.Recomputed++
	c.clampSite(l, out)
	return c.canonicalize(out, golden)
}

// regionExec attempts the dirty-region sweep for one execution with dirty
// inputs: if the layer supports it and the dirty input's span is known, only
// the output box the span reaches is recomputed. Returns handled=false to
// fall back to a full recompute.
func (c *Context) regionExec(l Layer, key execKey, golden *tensor.Tensor, in []*tensor.Tensor) (*tensor.Tensor, bool) {
	if c.arena == nil || len(in) != 1 || in[0] == nil {
		return nil, false
	}
	rs, ok := l.(regionSite)
	if !ok {
		return nil, false
	}
	sp, ok := c.spans[in[0]]
	if !ok {
		return nil, false
	}
	out, oy0, oy1, ox0, ox1, ok := rs.forwardRegion(c, in[0], golden, sp)
	if !ok {
		// The dirty input reaches no output element (it fell off the stride
		// lattice or the padding crop): the golden output stands.
		c.stats.Skipped++
		c.stats.MACsAvoided += c.trace.work[key]
		return golden, true
	}
	c.stats.Recomputed++
	c.stats.RegionSwept++
	// Clamp before the diff scan: saturation can restore golden equality
	// (converging the pass early), and the recorded span must bound the
	// final, post-clamp tensor. Outside the recomputed box the data is a
	// golden copy, on which the clamp is the identity.
	c.clampSite(l, out)
	var nsp span
	var equal bool
	if out.Rank() == 4 && oy1 > oy0 {
		nsp, equal = diffSpanBox(out, golden, oy0, oy1, ox0, ox1)
	} else {
		nsp, equal = diffSpanFull(out, golden)
	}
	if equal {
		c.stats.Converged++
		c.arena.release(out)
		return golden, true
	}
	c.spans[out] = nsp
	return out, true
}

// glue wraps a composite layer's own work (residual add, branch concat,
// attention slicing/softmax). Glue steps are never injection targets; they
// memoize on a separate visit counter so leaf and composite numbering cannot
// collide.
func (c *Context) glue(l Layer, compute func() *tensor.Tensor, in ...*tensor.Tensor) *tensor.Tensor {
	if c == nil || c.mode == ctxPlain {
		return compute()
	}
	v := c.glueVisits[l]
	c.glueVisits[l] = v + 1
	key := execKey{layer: l, visit: v, glue: true}
	if c.mode == ctxRecord {
		out := compute()
		c.trace.put(key, out)
		return out
	}
	golden, ok := c.trace.outputs[key]
	if !ok {
		return compute()
	}
	if !c.injected || c.allGolden(in) {
		c.stats.Skipped++
		return golden
	}
	out := compute()
	c.stats.Recomputed++
	return c.canonicalize(out, golden)
}

// canonicalize maps a recomputed output that equals its golden value back
// onto the golden tensor pointer, so downstream dirty tests see it as clean
// again. The recomputed buffer goes back to the arena. The convergence scan
// doubles as the span scan: when the output differs, the diff span is
// recorded so a downstream region-capable layer can sweep only the dirty
// region. This replaces the Equal scan the engine already paid, so span
// maintenance is free.
func (c *Context) canonicalize(out, golden *tensor.Tensor) *tensor.Tensor {
	if out == golden {
		return out
	}
	sp, equal := diffSpanFull(out, golden)
	if equal {
		c.stats.Converged++
		c.arena.release(out)
		return golden
	}
	if c.spans != nil {
		c.spans[out] = sp
	}
	return out
}

// allGolden reports whether every input is a recorded golden tensor.
func (c *Context) allGolden(in []*tensor.Tensor) bool {
	for _, t := range in {
		if t != nil && !c.trace.golden[t] {
			return false
		}
	}
	return true
}
