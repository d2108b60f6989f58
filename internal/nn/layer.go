// Package nn implements the DNN inference substrate that plays the role of
// the (modified) TensorFlow runtime in the paper: layers whose operands —
// inputs, weights, bias values, partial sums and outputs — are visible and
// individually overridable, so that FIdelity's software fault models can be
// applied during a forward pass.
//
// Compute layers (Conv2D, Dense, matmul sites) expose:
//
//   - an injection hook invoked with their full operand set after the layer
//     computes its output, so a fault model can patch output neurons in place;
//   - ComputeNeuron, which recomputes a single output neuron with one operand
//     element overridden — exactly the capability needed to realize the
//     "recompute all neurons that use the faulty value" semantics of the
//     paper's Table II;
//   - NeuronsUsingOperand, which enumerates the output neurons consuming a
//     given operand element (the reuse set of a value stored before the
//     on-chip buffer).
//
// All arithmetic is routed through a numerics.Codec so FP16/INT16/INT8
// datapaths behave bit-accurately.
package nn

import (
	"fmt"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// Kind identifies the layer types that have distinct software fault models in
// the paper's Table II.
type Kind int

const (
	// KindOther marks layers that are not fault-injection sites.
	KindOther Kind = iota
	// KindConv marks convolution layers.
	KindConv
	// KindFC marks fully connected (dense) layers.
	KindFC
	// KindMatMul marks matrix-multiplication sites (e.g. inside attention).
	KindMatMul
)

// String returns the Table II name of the kind.
func (k Kind) String() string {
	switch k {
	case KindConv:
		return "Conv"
	case KindFC:
		return "FC"
	case KindMatMul:
		return "MatMul"
	default:
		return "Other"
	}
}

// OperandKind names the variable type of a datapath value, mirroring the
// paper's datapath FF variable categories.
type OperandKind int

const (
	// OperandInput is an activation/input value.
	OperandInput OperandKind = iota
	// OperandWeight is a weight value (or the second matrix of a matmul).
	OperandWeight
	// OperandBias is a bias value.
	OperandBias
	// OperandOutput is an output neuron or partial-sum value.
	OperandOutput
)

// String returns the variable-type name.
func (k OperandKind) String() string {
	switch k {
	case OperandInput:
		return "input"
	case OperandWeight:
		return "weight"
	case OperandBias:
		return "bias"
	case OperandOutput:
		return "output"
	default:
		return fmt.Sprintf("OperandKind(%d)", int(k))
	}
}

// Override replaces one operand element during a neuron recomputation.
type Override struct {
	Kind OperandKind
	// Flat is the row-major index into the operand tensor.
	Flat int
	// Value is the faulty value observed in place of the stored one.
	Value float32
}

// Operands is the full operand view of a compute layer execution handed to
// the injection hook. Out may be patched in place.
type Operands struct {
	// In is the layer input (operand A of a matmul site).
	In *tensor.Tensor
	// W is the weight tensor (operand B of a matmul site). Nil for layers
	// without weights.
	W *tensor.Tensor
	// B is the bias vector, or nil.
	B *tensor.Tensor
	// Out is the computed output; hooks may modify it in place.
	Out *tensor.Tensor
}

// Hook is invoked by a compute layer after it produces its output. site is
// the executing layer and visit counts its executions within one forward pass
// (0-based), which disambiguates layers that run multiple times (LSTM steps,
// shared attention blocks).
type Hook func(site Layer, visit int, op *Operands)

// Context threads the injection hook through a forward pass. A nil *Context
// is valid and means "no instrumentation". A Context additionally carries the
// replay machinery (see replay.go): in record mode it captures golden outputs,
// in replay mode it memoizes against them and fires the hook only at the
// armed target execution.
type Context struct {
	hook   Hook
	visits map[Layer]int

	mode       ctxMode
	execVisits map[Layer]int
	glueVisits map[Layer]int
	trace      *GoldenTrace
	arena      *Arena

	target      Layer
	targetVisit int
	injected    bool
	// pendingFire/pendingVisit gate the replay-mode hook dispatch: fire only
	// passes the hook through when exec has armed it for the target visit,
	// and reports the recorded visit number rather than the (skip-distorted)
	// replay-side counter.
	pendingFire  bool
	pendingVisit int
	stats        ReplayStats

	// spans tracks, for every dirty (non-golden) tensor produced during a
	// replayed pass, the flat index span (and spatial box, for rank-4) that
	// bounds its differences from the golden output. Region-capable layers use
	// it to recompute only the output region the fault can reach.
	spans map[*tensor.Tensor]span

	// clamps holds the per-site range-restriction envelopes of a hardened
	// network (see clamp.go). Installed by Network.instrument; read-only
	// during a pass. hstats counts what clamping did.
	clamps map[Layer]Bound
	hstats HardenStats
}

// NewContext builds a context that invokes hook at every compute site.
func NewContext(hook Hook) *Context {
	return &Context{hook: hook, visits: make(map[Layer]int)}
}

// fire dispatches the hook for one execution of site.
func (c *Context) fire(site Layer, op *Operands) {
	if c == nil || c.hook == nil {
		return
	}
	if c.mode == ctxReplay {
		if !c.pendingFire {
			return
		}
		c.pendingFire = false
		c.hook(site, c.pendingVisit, op)
		return
	}
	v := c.visits[site]
	c.visits[site] = v + 1
	c.hook(site, v, op)
}

// Layer is one node of a network. Forward must be safe to call repeatedly;
// layers hold no per-call state beyond the Context visit counters.
type Layer interface {
	// Name returns a human-readable unique-ish identifier.
	Name() string
	// Forward computes the layer output for x, firing ctx hooks at every
	// compute site (ctx may be nil).
	Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor
}

// Site is a compute layer that can serve as a fault-injection target.
type Site interface {
	Layer
	// Kind returns the Table II layer type.
	Kind() Kind
	// Codec returns the datapath number format of the site.
	Codec() numerics.Codec
	// ComputeNeuron recomputes the single output neuron at multi-index idx
	// from the operand set, applying ov if non-nil.
	ComputeNeuron(op *Operands, idx []int, ov *Override) float32
	// NeuronsUsingOperand returns the multi-indices of all output neurons
	// whose computation consumes operand element (kind, flat), given the
	// operand shapes in op. This is the full reuse set of the value.
	NeuronsUsingOperand(op *Operands, kind OperandKind, flat int) [][]int
}

// Sequential chains layers.
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential builds a named layer chain.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, Layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, ctx)
	}
	return x
}

// Sites returns all injection sites reachable from l, in execution order for
// the layer graph structure (not accounting for repeated execution).
func Sites(l Layer) []Site {
	var out []Site
	collectSites(l, &out)
	return out
}

// container is implemented by composite layers so site enumeration can
// traverse the layer graph.
type container interface {
	children() []Layer
}

func collectSites(l Layer, out *[]Site) {
	if s, ok := l.(Site); ok {
		*out = append(*out, s)
	}
	if c, ok := l.(container); ok {
		for _, child := range c.children() {
			if child != nil {
				collectSites(child, out)
			}
		}
	}
}

// children implements container.
func (s *Sequential) children() []Layer { return s.Layers }
