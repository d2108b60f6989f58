// Package inject is step 2 of the FIdelity flow: it applies the software
// fault models to end-to-end inference runs of the nn substrate and
// classifies each experiment's outcome (masked vs. application output error
// vs. system anomaly), producing the Prob_SWmask statistics Eq. 2 consumes.
package inject

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"fidelity/internal/faultmodel"
	"fidelity/internal/model"
	"fidelity/internal/nn"
	"fidelity/internal/tensor"
)

// Outcome classifies one fault-injection experiment (Sec. III-D: masked vs.
// system failure, where failure covers output errors and system anomalies).
type Outcome int

const (
	// Masked: the application output is sufficiently similar to the golden
	// output under the workload's correctness metric.
	Masked Outcome = iota
	// OutputError: the application output violates the correctness metric.
	OutputError
	// SystemAnomaly: time-out or hang (global-control faults).
	SystemAnomaly
	// FrameworkFault: the experiment did not produce an application outcome
	// because the injection framework itself failed — a panic in the
	// recompute path or a watchdog-killed hang. It is a harness outcome, not
	// a hardware one: the campaign supervisor quarantines the experiment and
	// excludes it from the Prob_SWmask statistics Eq. 2 consumes.
	FrameworkFault
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case OutputError:
		return "output-error"
	case SystemAnomaly:
		return "system-anomaly"
	case FrameworkFault:
		return "framework-fault"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Failed reports whether the outcome counts as a system failure in Eq. 2.
func (o Outcome) Failed() bool { return o != Masked }

// ReplayCost reports what the incremental replay engine did during one
// experiment's forward pass. Nil on Results produced by the full-forward
// path (replay disabled, or global-control shortcuts that run no forward).
type ReplayCost struct {
	// Skipped counts layer executions served from the golden trace.
	Skipped int
	// Recomputed counts layer executions in the fault's downstream cone.
	Recomputed int
	// Converged counts recomputed executions whose output matched golden
	// again, re-enabling skips downstream.
	Converged int
	// RegionSwept counts recomputed executions served by the dirty-region
	// sweep: only the output box reached by the fault was recomputed.
	RegionSwept int
	// MACsAvoided estimates the MAC work of skipped site executions.
	MACsAvoided float64
	// ArenaReuses counts output buffers recycled instead of allocated.
	ArenaReuses int64
}

// HardenCost reports what range-restriction clamping did during one
// experiment's forward pass. Nil for unhardened networks and for
// global-control shortcuts that run no forward pass.
type HardenCost struct {
	// ClampApplications counts site executions whose output was
	// bounds-checked.
	ClampApplications int64
	// Saturated counts individual output values forced back into the
	// profiled envelope.
	Saturated int64
}

// Result records one experiment.
type Result struct {
	Outcome Outcome
	Model   faultmodel.ID
	Site    string
	// FaultyNeurons is the number of output neurons changed at the injected
	// layer.
	FaultyNeurons int
	// MaxPerturbation is the largest |faulty − golden| among the changed
	// neurons (Key Result 5's quantity). Infinities and NaN map to +Inf.
	MaxPerturbation float64
	// Score is the application quality score vs. the golden output.
	Score float64
	// Replay carries the replay engine's per-experiment savings, nil when
	// the experiment ran the full forward pass.
	Replay *ReplayCost
	// Harden carries the clamp counters of a hardened network's forward
	// pass, nil otherwise. Like Replay, it is run-cost telemetry, not part
	// of the experiment outcome.
	Harden *HardenCost
}

// Injector runs fault-injection experiments against one workload.
type Injector struct {
	W       *model.Workload
	Sampler *faultmodel.Sampler

	// cached golden state per input
	input   *tensor.Tensor
	golden  model.AppOutput
	execs   []nn.SiteExecution
	weights []float64
	total   float64

	// replay state (nil when the golden was traced without replay)
	trace *nn.GoldenTrace
	arena *nn.Arena
	rctx  *nn.Context
}

// New builds an injector for workload w with sampler s.
func New(w *model.Workload, s *faultmodel.Sampler) *Injector {
	return &Injector{W: w, Sampler: s}
}

// Golden is the recorded golden state for one input: the decoded clean
// inference output, every site execution (with golden activations when
// traced for replay), the work-proportional sampling weights, and the replay
// trace. It is immutable once TraceGolden returns, so a campaign records it
// once per input and shares it across every shard's injector — replay only
// reads the trace, and each injector keeps its own mutable replay context.
type Golden struct {
	input   *tensor.Tensor
	golden  model.AppOutput
	execs   []nn.SiteExecution
	weights []float64
	total   float64
	trace   *nn.GoldenTrace // nil when traced without replay support
}

// Input returns the input tensor the golden state was recorded for. It is
// read-only for the lifetime of the Golden: injection never mutates the
// network input (faults land on operands and outputs of site executions).
func (g *Golden) Input() *tensor.Tensor { return g.input }

// TraceGolden runs the golden inference for x and records the shared golden
// state. withReplay selects the activation-recording trace the replay engine
// consumes; without it every experiment prepared from the Golden runs the
// full forward pass, the reference the replay engine is tested against.
func TraceGolden(w *model.Workload, x *tensor.Tensor, withReplay bool) (*Golden, error) {
	g := &Golden{input: x}
	var out *tensor.Tensor
	if withReplay {
		out, g.execs, g.trace = w.Net.TraceWithActivations(x)
	} else {
		out, g.execs = w.Net.Trace(x)
	}
	if len(g.execs) == 0 {
		return nil, fmt.Errorf("inject: workload %s has no injection sites", w.Net.Name())
	}
	g.golden = w.Decode(out)
	g.weights = make([]float64, len(g.execs))
	for i, e := range g.execs {
		g.weights[i] = execWork(e)
		g.total += g.weights[i]
		if g.trace != nil {
			g.trace.SetWork(e.Site, e.Visit, g.weights[i])
		}
	}
	return g, nil
}

// Prepare runs the golden inference for input x and caches the trace —
// including the golden output tensor of every layer execution, which
// subsequent Runs replay incrementally instead of recomputing the full
// network. Must be called before Run; call again to switch inputs. Campaigns
// with several injectors over the same input should TraceGolden once and
// PrepareGolden each injector instead.
func (in *Injector) Prepare(x *tensor.Tensor) error {
	g, err := TraceGolden(in.W, x, true)
	if err != nil {
		return err
	}
	return in.PrepareGolden(g)
}

// PrepareGolden initializes the injector from a shared Golden, skipping the
// golden forward pass. g must have been traced for the injector's own
// workload. Runs replay exactly when g carries a replay trace.
func (in *Injector) PrepareGolden(g *Golden) error {
	in.input = g.input
	in.golden = g.golden
	in.execs = g.execs
	in.weights = g.weights
	in.total = g.total
	in.trace = g.trace
	if in.trace == nil {
		in.arena, in.rctx = nil, nil
		return nil
	}
	in.arena = nn.NewArena()
	in.rctx = nn.NewReplayContext(in.trace, in.arena)
	return nil
}

// execWork estimates the MAC work of a site execution: output size times the
// reduction length — the proxy for the time share during which the layer's
// values occupy the accelerator datapath.
func execWork(e nn.SiteExecution) float64 {
	red := 1.0
	if c, ok := e.Site.(*nn.Conv2D); ok && c.Depthwise {
		// One filter per channel: the reduction is just the kernel window.
		red = float64(c.KH * c.KW)
	} else if len(e.WShape) > 0 {
		wsize := 1
		for _, d := range e.WShape {
			wsize *= d
		}
		outCh := e.WShape[len(e.WShape)-1]
		if e.Site != nil && e.Site.Kind() != nn.KindConv {
			outCh = e.WShape[1] // (K, N) layout
		}
		if outCh > 0 {
			red = float64(wsize) / float64(outCh)
		}
	}
	return float64(e.OutSize) * red
}

// pickExec samples a site execution proportionally to its work.
func (in *Injector) pickExec() nn.SiteExecution {
	r := in.Sampler.Rand().Float64() * in.total
	for i, w := range in.weights {
		r -= w
		if r <= 0 {
			return in.execs[i]
		}
	}
	return in.execs[len(in.execs)-1]
}

// PredictTarget returns the execution index a Run whose experiment stream is
// seeded at seed will target, without touching the injector's own sampler.
// The target draw is the first Float64 of the stream (pickExec), so a scratch
// generator over the same seed reproduces it exactly. Campaigns use this to
// group a batch of cursor-derived experiments by target site before running
// them: grouping is sound precisely because each experiment re-derives its
// whole stream from its cursor seed, so execution order cannot change any
// drawn value.
func (in *Injector) PredictTarget(seed int64) int {
	r := rand.New(faultmodel.NewStreamSource(seed)).Float64() * in.total
	for i, w := range in.weights {
		r -= w
		if r <= 0 {
			return i
		}
	}
	return len(in.execs) - 1
}

// Golden returns the cached fault-free application output.
func (in *Injector) Golden() model.AppOutput { return in.golden }

// Executions returns the number of recorded site executions for the
// prepared input.
func (in *Injector) Executions() int { return len(in.execs) }

// Execution returns the i-th recorded site execution.
func (in *Injector) Execution(i int) nn.SiteExecution { return in.execs[i] }

// Run executes one experiment: sample a fault of model id at a work-weighted
// site execution, inject it, and classify the outcome under tolerance tol.
// A single experiment is the cancellation atom: ctx is checked once on
// entry, before any sampler draw, so a cancelled Run never advances the
// sampler's random stream (which is what keeps checkpoints exact).
func (in *Injector) Run(ctx context.Context, id faultmodel.ID, tol float64) (Result, error) {
	return in.run(ctx, id, tol, -1)
}

// RunAt executes one experiment pinned to the execIdx-th site execution —
// used by per-layer campaigns that estimate Prob_SWmask(cat, r) separately
// for every layer r.
func (in *Injector) RunAt(ctx context.Context, execIdx int, id faultmodel.ID, tol float64) (Result, error) {
	if execIdx < 0 || execIdx >= len(in.execs) {
		return Result{}, fmt.Errorf("inject: execution %d outside [0,%d)", execIdx, len(in.execs))
	}
	return in.run(ctx, id, tol, execIdx)
}

func (in *Injector) run(ctx context.Context, id faultmodel.ID, tol float64, execIdx int) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if in.input == nil {
		return Result{}, fmt.Errorf("inject: Prepare must be called first")
	}
	res := Result{Model: id}
	if id == faultmodel.GlobalControl {
		// FIdelity models faults in active global control FFs as always
		// failing (Prob_SWmask = 0); the concrete anomaly is a time-out or
		// massive corruption.
		res.Outcome = SystemAnomaly
		res.Site = "global"
		res.Score = 0
		return res, nil
	}
	target := in.pickExec()
	if execIdx >= 0 {
		target = in.execs[execIdx]
	}
	res.Site = target.Site.Name()

	var plan *faultmodel.Plan
	var changes []faultmodel.Change
	var planErr error
	var fctx *nn.Context
	hook := func(site nn.Layer, visit int, op *nn.Operands) {
		s, ok := site.(nn.Site)
		if !ok || s != target.Site || visit != target.Visit || planErr != nil || plan != nil {
			return
		}
		// One experiment injects exactly once: detach the hook so the rest
		// of the traversal stops paying for dispatch and visit re-checks.
		defer fctx.Detach()
		plan, planErr = in.Sampler.Plan(id, s, visit, op)
		if planErr != nil {
			return
		}
		changes = faultmodel.Apply(plan, s, op)
	}
	var out *tensor.Tensor
	if in.rctx != nil {
		// Incremental replay: reclaim last experiment's buffers (also after
		// a recovered panic mid-pass), arm the target, and let the context
		// serve golden tensors for everything outside the fault's cone.
		in.arena.Reset()
		arenaBase := in.arena.Reuses()
		fctx = in.rctx
		fctx.SetTarget(target.Site, target.Visit, hook)
		out = in.W.Net.ForwardWithContext(in.input, fctx)
		st := fctx.Stats()
		res.Replay = &ReplayCost{
			Skipped:     st.Skipped,
			Recomputed:  st.Recomputed,
			Converged:   st.Converged,
			RegionSwept: st.RegionSwept,
			MACsAvoided: st.MACsAvoided,
			ArenaReuses: in.arena.Reuses() - arenaBase,
		}
	} else {
		fctx = nn.NewContext(hook)
		out = in.W.Net.ForwardWithContext(in.input, fctx)
	}
	if in.W.Net.Hardened() {
		hs := fctx.HardenStats()
		res.Harden = &HardenCost{ClampApplications: hs.ClampApplications, Saturated: hs.Saturated}
	}
	if planErr != nil {
		return Result{}, planErr
	}
	if plan == nil {
		return Result{}, fmt.Errorf("inject: target execution %s#%d not reached", target.Site.Name(), target.Visit)
	}

	res.FaultyNeurons = len(changes)
	for _, c := range changes {
		d := math.Abs(float64(c.Faulty) - float64(c.Golden))
		if math.IsNaN(d) {
			d = math.Inf(1)
		}
		if d > res.MaxPerturbation {
			res.MaxPerturbation = d
		}
	}
	if len(changes) == 0 {
		// The flip did not alter any stored output value: architecturally
		// masked at the layer itself.
		res.Outcome = Masked
		res.Score = 1
		return res, nil
	}
	faulty := in.W.Decode(out)
	res.Score = in.W.Score(in.golden, faulty)
	if in.W.Correct(in.golden, faulty, tol) {
		res.Outcome = Masked
	} else {
		res.Outcome = OutputError
	}
	return res, nil
}
