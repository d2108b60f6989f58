package campaign

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/fit"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/nn"
	"fidelity/internal/telemetry"
	"fidelity/internal/tensor"
)

// DefaultShards is the number of logical sampling shards a study splits its
// experiment space into when StudyOptions.Shards is zero. Shards — not
// workers — own the deterministic random streams, so results depend only on
// (Seed, Shards), never on the worker count.
const DefaultShards = 16

// experimentBatch is the shard loop's experiment batch window: consecutive
// flat-mode experiments are pre-drawn, grouped by their target site
// execution, and run group by group so same-site experiments amortize one
// golden prefix and one arena working set. Batching changes execution order
// only — every experiment draws its whole stream from a cursor-derived seed
// and tallies commit in cursor order at batch boundaries, so results and
// checkpoints are byte-identical to the unbatched oracle run.
const experimentBatch = 64

// StudyOptions parameterizes a Sec. V resilience study for one workload.
type StudyOptions struct {
	// Samples is the number of fault-injection experiments per software
	// fault model (the paper uses statistically significant counts; the
	// Wilson half-width of the masking estimates is reported).
	Samples int
	// TargetCI switches the campaign to adaptive stratified sampling:
	// instead of a fixed Samples per fault model, every (layer, fault-model)
	// stratum runs until its masking estimate's 95% Wilson half-width is at
	// most TargetCI (or the worst-case bound SamplesFor(TargetCI) is spent).
	// Mutually exclusive with Samples; must be in (0, 0.5]. Experiments run
	// in rounds planned only at shard barriers from merged tallies in
	// canonical stratum order, so results stay a pure function of (Seed,
	// Shards, TargetCI) — never of Workers. Part of the campaign's
	// checkpoint identity (format v3).
	TargetCI float64
	// Inputs is the number of distinct dataset inputs to rotate through.
	Inputs int
	// Tolerance is the score tolerance for BLEU/detection metrics (0.1 or
	// 0.2 per Table IV; ignored for Top-1).
	Tolerance float64
	// Seed drives all sampling.
	Seed int64
	// RawFITPerMB is the raw FF FIT rate; 0 selects the paper's 600/MB.
	RawFITPerMB float64
	// Workers runs the injection experiments on this many goroutines
	// (0/1 = sequential). Workload networks are read-only during injection,
	// so sharding is safe. The worker count affects only wall-clock time:
	// experiments are partitioned into Shards deterministic streams, so any
	// Workers value produces identical tallies for a fixed Seed.
	Workers int
	// Shards is the number of independent deterministic sampling streams
	// (0 = DefaultShards). It is part of a study's identity: changing it
	// changes which experiments are drawn, like changing Seed.
	Shards int
	// PerLayer estimates Prob_SWmask(cat, r) separately for every layer r
	// (the exact Eq. 2 form) instead of one network-wide aggregate. The
	// experiment count multiplies by the number of layer executions.
	PerLayer bool

	// Hardening fingerprints the mitigation config installed on the
	// workload's network (harden.Config.Fingerprint; empty for unhardened
	// campaigns). It joins the checkpoint identity: clamps change every
	// experiment's forward pass, so a hardened campaign must never resume
	// from — or be resumed by — an unhardened one's checkpoint. It does not
	// otherwise affect execution; installing the clamps on the network is
	// the caller's job.
	Hardening string
	// CheckpointPath, when non-empty, is where the engine saves a resumable
	// JSON checkpoint: always on cancellation, and periodically every
	// CheckpointInterval while running (0 disables periodic saves).
	CheckpointPath     string
	CheckpointInterval time.Duration
	// Resume continues a previously interrupted study. A checkpoint whose
	// identity (workload, precision, tolerance, samples, inputs, seed,
	// shards, per-layer) does not match this study is ignored and the study
	// runs from scratch — so one checkpoint file can safely be offered to
	// every cell of a multi-workload figure.
	Resume *Checkpoint
	// Telemetry, when non-nil, receives per-experiment outcome counts,
	// per-phase wall-clock timings, and the supervisor's recovery counters.
	Telemetry *telemetry.Collector
	// ExperimentTimeout bounds one injection experiment's wall-clock time.
	// A positive value runs every experiment under a per-shard watchdog: an
	// experiment that exceeds the deadline is abandoned on its goroutine,
	// quarantined, and the shard continues on a fresh injector. 0 disables
	// the watchdog and runs experiments inline.
	ExperimentTimeout time.Duration
	// FailureBudget caps, per shard and per run, how many experiments the
	// supervisor may quarantine (recovered panics plus timeouts) before the
	// shard stops contributing and the study degrades into a partial result
	// (StudyResult.Partial). 0 selects DefaultFailureBudget; negative means
	// unlimited.
	FailureBudget int
	// IORetries and IOBackoff bound the retry-with-exponential-backoff loop
	// around checkpoint saves, for transient I/O failures. Zero values
	// select DefaultIORetries and DefaultIOBackoff.
	IORetries int
	IOBackoff time.Duration

	// chaos is the test-only failure injector of the chaos self-test
	// harness; always nil in production.
	chaos *chaosPolicy
	// observe is a test-only per-experiment observer, called for every
	// completed (non-quarantined) experiment.
	observe func(shard int, cur Cursor, id faultmodel.ID, r inject.Result)
	// oracle selects the test-only reference path the optimised engine is
	// proven byte-identical against: goldens traced without replay (every
	// experiment is a plain full forward pass), the unbatched step loop, and
	// per-shard golden tracing instead of the shared cache. Always false in
	// production, and not part of the checkpoint identity.
	oracle bool
	// golden shares one recorded golden trace per input across every shard
	// of a run (the trace is immutable during replay, so sharing is safe);
	// set by Study and RunShard before the shard states copy the options.
	// nil (the oracle, or options built by tests calling shard internals
	// directly) falls back to per-shard golden tracing.
	golden *goldenCache
}

// goldenCache memoizes the per-input golden state (sampled input tensor,
// clean inference, replay trace, sampling weights) so a run's shards record
// it once instead of once per shard. Keyed by input index: the workload is
// fixed for the run the cache belongs to.
type goldenCache struct {
	mu      sync.Mutex
	entries map[int]*inject.Golden
}

func (c *goldenCache) get(w *model.Workload, input int) (*inject.Golden, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.entries[input]; ok {
		return g, nil
	}
	x, err := dataset.Sample(w.Dataset, input)
	if err != nil {
		return nil, err
	}
	g, err := inject.TraceGolden(w, x, true)
	if err != nil {
		return nil, err
	}
	if c.entries == nil {
		c.entries = map[int]*inject.Golden{}
	}
	c.entries[input] = g
	return g, nil
}

// shards returns the resolved shard count.
func (o StudyOptions) shards() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return DefaultShards
}

// validate rejects inconsistent sampling options: exactly one of Samples
// (fixed-count) and TargetCI (adaptive) must drive the campaign.
func (o StudyOptions) validate() error {
	if o.TargetCI == 0 {
		if o.Samples <= 0 || o.Inputs <= 0 {
			return fmt.Errorf("campaign: Samples and Inputs must be positive")
		}
		return nil
	}
	// Written as a negated in-range test so NaN, which compares false
	// against every bound, is rejected too.
	if !(o.TargetCI > 0 && o.TargetCI <= 0.5) {
		return fmt.Errorf("campaign: TargetCI must be in (0, 0.5], got %v", o.TargetCI)
	}
	if o.Samples != 0 {
		return fmt.Errorf("campaign: Samples and TargetCI are mutually exclusive")
	}
	if o.Inputs <= 0 {
		return fmt.Errorf("campaign: Inputs must be positive")
	}
	return nil
}

// shardSeed derives the independent stream seed of one logical shard.
func shardSeed(seed int64, shard int) int64 { return seed*1_000_003 + int64(shard) }

// PerturbationStats is the Key Result 5 measurement over experiments that
// corrupt exactly one output neuron: application-error probability split by
// perturbation magnitude.
type PerturbationStats struct {
	// SmallFail is P(output error | single faulty neuron, |Δ| <= 100).
	SmallFail Proportion
	// LargeFail is P(output error | single faulty neuron, |Δ| > 100).
	LargeFail Proportion
}

// StudyResult is the full study output for one (workload, precision,
// tolerance) cell of Figs 4/5.
type StudyResult struct {
	Workload  string
	Precision string
	Tolerance float64
	// Masked holds Prob_SWmask per software fault model with its CI.
	Masked map[faultmodel.ID]*Proportion
	// FIT is the Eq. 2 result; FITProtected assumes global control FFs are
	// protected (Fig 6).
	FIT, FITProtected *fit.Result
	// Perturb is the Key Result 5 statistic.
	Perturb PerturbationStats
	// Experiments counts all injection runs performed (including any
	// restored from a resumed checkpoint).
	Experiments int
	// Layers retains the Eq. 2 per-layer inputs so FIT can be recomputed
	// under perturbed assumptions (sensitivity analysis) without re-running
	// the injection campaign.
	Layers []fit.LayerStats
	// RawPerFF is the per-FF raw FIT rate used.
	RawPerFF float64
	// Quarantined lists the experiments the supervision layer removed from
	// the campaign after framework failures (recovered panics, watchdog
	// timeouts), sorted by (shard, cursor). Their outcomes are excluded
	// from every statistic above.
	Quarantined []QuarantinedExperiment
	// Partial marks a degraded campaign: at least one shard stopped early
	// after exhausting its failure budget. The tallies cover only the
	// experiments that ran; resume from the saved checkpoint to complete
	// the study.
	Partial bool
}

// specsFromTrace derives the accelerator-level layer descriptions of a
// network from one traced inference — the workload input of Fig 3.
func specsFromTrace(w *model.Workload, execs []nn.SiteExecution) ([]accel.LayerSpec, error) {
	var specs []accel.LayerSpec
	for i, e := range execs {
		name := fmt.Sprintf("%s#%d", e.Site.Name(), e.Visit)
		switch s := e.Site.(type) {
		case *nn.Conv2D:
			os := e.OutShape
			inC := s.InC
			if s.Depthwise {
				inC = 1 // one filter per channel: reduction is the kernel window
			}
			specs = append(specs, accel.ConvSpec(name, os[0], os[1], os[2], os[3],
				s.KH, s.KW, inC, s.Stride, w.Net.Precision))
		case *nn.Dense:
			specs = append(specs, accel.FCSpec(name, e.InShape[0], s.In, s.Out, w.Net.Precision))
		case *nn.MatMulSite:
			m, k := e.InShape[0], e.InShape[1]
			n := e.OutShape[1]
			specs = append(specs, accel.MatMulSpec(name, m, k, n, w.Net.Precision))
		default:
			return nil, fmt.Errorf("campaign: execution %d has unsupported site type %T", i, e.Site)
		}
	}
	return specs, nil
}

// shardState is the runtime state of one logical shard. The running worker
// owns the tally fields exclusively; concurrent observers (the periodic
// checkpoint saver) read only the published snapshot under mu.
type shardState struct {
	index int
	seed  int64

	// Campaign bindings, set once before the workers start.
	w      *model.Workload
	models []faultmodel.Model
	opts   StudyOptions

	// Owned by the worker executing the shard. sampler and inj are replaced
	// wholesale after a watchdog kill: the abandoned experiment goroutine
	// may still be touching the old pair, so they are never reused.
	sampler  *faultmodel.Sampler
	inj      *inject.Injector
	input    *tensor.Tensor
	inputIdx int

	masked       map[faultmodel.ID]*Proportion
	perLayer     []map[faultmodel.ID]*Proportion
	perturb      PerturbationStats
	experiments  int
	cursor       Cursor
	adaptive     *AdaptiveShardState // round state; nil in fixed-count campaigns
	quarantine   []QuarantinedExperiment
	quarantined  map[Cursor]bool
	failures     int // quarantines charged to this run's failure budget
	sincePublish int
	publishEvery int // experiment cadence between published snapshots
	done         bool
	err          error

	mu        sync.Mutex
	published ShardCheckpoint
}

// ErrShardExhausted aborts a shard's run after its failure budget is spent:
// the shard's published checkpoint stays consistent and resumable, and a
// study containing such a shard degrades to a partial result instead of
// failing. RunShard surfaces it so distributed workers can report a degraded
// (rather than completed or failed) shard to their coordinator.
var ErrShardExhausted = errors.New("campaign: shard failure budget exhausted")

func newShardState(index int, seed int64, w *model.Workload, models []faultmodel.Model, opts StudyOptions) *shardState {
	sh := &shardState{
		index:        index,
		seed:         seed,
		w:            w,
		models:       models,
		opts:         opts,
		masked:       map[faultmodel.ID]*Proportion{},
		publishEvery: defaultPublishEvery,
	}
	for _, id := range faultmodel.AllIDs() {
		sh.masked[id] = &Proportion{}
	}
	sh.publish(Cursor{})
	return sh
}

// restore loads a shard checkpoint into the live state.
func (sh *shardState) restore(sc ShardCheckpoint) {
	sh.cursor = sc.Cursor
	sh.done = sc.Done
	sh.experiments = sc.Experiments
	sh.perturb = sc.Perturb
	for id, p := range sc.Masked {
		cp := p
		sh.masked[id] = &cp
	}
	if sc.PerLayer != nil {
		sh.perLayer = make([]map[faultmodel.ID]*Proportion, len(sc.PerLayer))
		for e, m := range sc.PerLayer {
			sh.perLayer[e] = map[faultmodel.ID]*Proportion{}
			for _, id := range faultmodel.AllIDs() {
				cp := m[id]
				sh.perLayer[e][id] = &cp
			}
		}
	}
	sh.adaptive = sc.Adaptive.clone()
	sh.quarantine = append([]QuarantinedExperiment(nil), sc.Quarantine...)
	if len(sh.quarantine) > 0 {
		sh.quarantined = make(map[Cursor]bool, len(sh.quarantine))
		for _, q := range sh.quarantine {
			sh.quarantined[q.Cursor] = true
		}
	}
	sh.publish(sh.cursor)
}

// publish snapshots the live state as a consistent ShardCheckpoint whose
// cursor names the next experiment to run. Called by the owning worker at
// experiment boundaries only, so tallies, quarantine and cursor always
// agree.
func (sh *shardState) publish(cur Cursor) {
	sc := ShardCheckpoint{
		Index:       sh.index,
		Done:        sh.done,
		Cursor:      cur,
		Experiments: sh.experiments,
		Perturb:     sh.perturb,
		Masked:      make(map[faultmodel.ID]Proportion, len(sh.masked)),
		Quarantine:  append([]QuarantinedExperiment(nil), sh.quarantine...),
		Adaptive:    sh.adaptive.clone(),
	}
	for id, p := range sh.masked {
		sc.Masked[id] = *p
	}
	if sh.perLayer != nil {
		sc.PerLayer = make([]map[faultmodel.ID]Proportion, len(sh.perLayer))
		for e, m := range sh.perLayer {
			sc.PerLayer[e] = make(map[faultmodel.ID]Proportion, len(m))
			for id, p := range m {
				sc.PerLayer[e][id] = *p
			}
		}
	}
	sh.mu.Lock()
	sh.published = sc
	sh.mu.Unlock()
}

// snapshot returns the last published consistent state.
func (sh *shardState) snapshot() ShardCheckpoint {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.published
}

// defaultPublishEvery is the experiment cadence at which a running shard
// refreshes its published snapshot for the periodic checkpoint saver.
// ShardRun.PublishEvery overrides it for distributed workers that stream
// finer-grained checkpoints to their coordinator.
const defaultPublishEvery = 64

// boundary pauses at an experiment boundary: ctx is checked and the
// published snapshot refreshed before the cursor's experiment runs.
func (sh *shardState) boundary(ctx context.Context, cur Cursor) error {
	if err := ctx.Err(); err != nil {
		sh.cursor = cur
		sh.publish(cur)
		return err
	}
	if sh.sincePublish++; sh.sincePublish >= sh.publishEvery {
		sh.sincePublish = 0
		sh.publish(cur)
	}
	return nil
}

// record tallies one completed experiment.
func (sh *shardState) record(layer int, id faultmodel.ID, r inject.Result) {
	sh.experiments++
	masked := r.Outcome == inject.Masked
	sh.masked[id].Add(masked)
	if layer >= 0 && sh.perLayer != nil {
		sh.perLayer[layer][id].Add(masked)
	}
	if r.FaultyNeurons == 1 {
		failed := !masked
		if r.MaxPerturbation <= 100 {
			sh.perturb.SmallFail.Add(failed)
		} else {
			sh.perturb.LargeFail.Add(failed)
		}
	}
	if tel := sh.opts.Telemetry; tel != nil {
		tel.RecordExperiment(id.String(), r.Outcome.String())
		if r.Replay != nil {
			tel.RecordReplay(r.Replay.Skipped, r.Replay.Recomputed, r.Replay.RegionSwept,
				r.Replay.ArenaReuses, r.Replay.MACsAvoided)
		}
		if r.Harden != nil {
			tel.RecordHarden(r.Harden.ClampApplications, r.Harden.Saturated)
		}
	}
}

// setInput samples input idx (or fetches it from the run's shared golden
// cache) and prepares the live injector for it.
func (sh *shardState) setInput(idx int) error {
	sh.inputIdx = idx
	if sh.opts.golden == nil {
		x, err := dataset.Sample(sh.w.Dataset, idx)
		if err != nil {
			return err
		}
		sh.input = x
	}
	if sh.inj == nil {
		return sh.ensureInjector()
	}
	return sh.prepare(sh.inj)
}

// prepare initializes inj for the shard's current input, going through the
// run's shared golden cache when the campaign provides one so all shards
// reuse one sampled input and one recorded trace per input instead of
// re-running the golden inference sixteen times. Without the cache the shard
// traces its own golden; the oracle's carries no replay trace.
func (sh *shardState) prepare(inj *inject.Injector) error {
	if sh.opts.golden == nil {
		g, err := inject.TraceGolden(sh.w, sh.input, !sh.opts.oracle)
		if err != nil {
			return err
		}
		return inj.PrepareGolden(g)
	}
	g, err := sh.opts.golden.get(sh.w, sh.inputIdx)
	if err != nil {
		return err
	}
	sh.input = g.Input()
	return inj.PrepareGolden(g)
}

// ensureInjector (re)builds the shard's sampler and injector — lazily after
// a watchdog kill abandoned the previous pair to a wedged goroutine.
func (sh *shardState) ensureInjector() error {
	if sh.sampler == nil {
		s, err := faultmodel.NewSampler(sh.models, sh.seed)
		if err != nil {
			return err
		}
		sh.sampler = s
	}
	if sh.inj == nil {
		inj := inject.New(sh.w, sh.sampler)
		if err := sh.prepare(inj); err != nil {
			return err
		}
		sh.inj = inj
	}
	return nil
}

// quarantineExperiment removes the experiment at cur from the campaign after
// a framework failure, recording it for the checkpoint and telemetry.
func (sh *shardState) quarantineExperiment(cur Cursor, id faultmodel.ID, ff *frameworkFault) {
	sh.quarantine = append(sh.quarantine, QuarantinedExperiment{
		Shard: sh.index, Cursor: cur, Model: id.String(),
		Reason: ff.reason, Detail: ff.detail,
	})
	if sh.quarantined == nil {
		sh.quarantined = map[Cursor]bool{}
	}
	sh.quarantined[cur] = true
	sh.failures++
	if tel := sh.opts.Telemetry; tel != nil {
		tel.RecordExperiment(id.String(), inject.FrameworkFault.String())
		tel.RecordQuarantine(sh.index, ff.reason)
		tel.SetShardBudget(sh.index, sh.failures, sh.opts.failureBudget(), false)
	}
}

// attempt executes the experiment at cur inside the recovery boundary,
// under the watchdog when a deadline is configured. A non-nil frameworkFault
// means the experiment must be quarantined; err is reserved for campaign
// failures (cancellation, invalid configuration).
func (sh *shardState) attempt(ctx context.Context, cur Cursor, id faultmodel.ID, execIdx int) (inject.Result, *frameworkFault, error) {
	if err := sh.ensureInjector(); err != nil {
		return inject.Result{}, nil, err
	}
	sh.sampler.Reseed(experimentSeed(sh.seed, cur))
	// Everything the experiment needs is captured by value or owned by it
	// exclusively: on a watchdog kill the shard abandons inj and sampler to
	// the zombie goroutine and continues on fresh ones, so they never race.
	inj := sh.inj
	shard, opts := sh.index, sh.opts
	run := func() (r inject.Result, ff *frameworkFault, err error) {
		defer func() {
			if p := recover(); p != nil {
				r, err = inject.Result{}, nil
				ff = &frameworkFault{reason: ReasonPanic, detail: fmt.Sprint(p)}
			}
		}()
		if c := opts.chaos; c != nil && c.experiment != nil {
			c.experiment(shard, cur)
		}
		if execIdx >= 0 {
			r, err = inj.RunAt(ctx, execIdx, id, opts.Tolerance)
		} else {
			r, err = inj.Run(ctx, id, opts.Tolerance)
		}
		return r, nil, err
	}
	if opts.ExperimentTimeout <= 0 {
		return run()
	}
	type outcome struct {
		r   inject.Result
		ff  *frameworkFault
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		r, ff, err := run()
		ch <- outcome{r, ff, err}
	}()
	timer := time.NewTimer(opts.ExperimentTimeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.r, o.ff, o.err
	case <-timer.C:
		// The experiment goroutine may be wedged, and Go cannot kill it:
		// abandon its injector and sampler so the shard continues on fresh
		// ones without racing the zombie, and let it exit into the buffered
		// channel whenever (if ever) it completes.
		sh.inj, sh.sampler = nil, nil
		return inject.Result{}, &frameworkFault{
			reason: ReasonTimeout,
			detail: fmt.Sprintf("exceeded %v", opts.ExperimentTimeout),
		}, nil
	}
}

// step supervises the single experiment at cur: checkpoint boundary,
// quarantine skip, recovery boundary, failure-budget accounting.
func (sh *shardState) step(ctx context.Context, cur Cursor, id faultmodel.ID, execIdx int) error {
	if err := sh.boundary(ctx, cur); err != nil {
		return err
	}
	if sh.quarantined[cur] {
		// Quarantined on a previous run: skip bit-identically. Experiment
		// streams are cursor-derived, so no draws need replaying.
		return nil
	}
	r, fault, err := sh.attempt(ctx, cur, id, execIdx)
	if err != nil {
		return err
	}
	if fault == nil {
		if sh.opts.observe != nil {
			sh.opts.observe(sh.index, cur, id, r)
		}
		sh.record(execIdx, id, r)
		return nil
	}
	sh.quarantineExperiment(cur, id, fault)
	if b := sh.opts.failureBudget(); b >= 0 && sh.failures > b {
		sh.cursor = cur
		sh.publish(cur)
		if tel := sh.opts.Telemetry; tel != nil {
			tel.SetShardBudget(sh.index, sh.failures, b, true)
		}
		return ErrShardExhausted
	}
	return nil
}

// batchEntry is one experiment of a site-grouped batch window.
type batchEntry struct {
	cur   Cursor
	exec  int  // predicted target execution: the grouping key
	skip  bool // quarantined on a previous run: no attempt, no commit
	r     inject.Result
	fault *frameworkFault
}

// stepBatch supervises a window of n consecutive flat-mode experiments
// starting at *cur, whose sample indices step by stride (1 in fixed-count
// campaigns; adaptive campaigns batch one input lane at a time, whose
// samples are Inputs apart). The window's experiments are pre-drawn (each
// target is predicted from its cursor-derived stream without touching the
// live sampler), stable-sorted by target execution so same-site experiments
// run back to back against one golden prefix and a warm arena working set,
// and executed in that grouped order. Shard state mutates only in the commit
// phase, in cursor order — so tallies, quarantine lists, failure-budget
// accounting and published checkpoints evolve exactly as n sequential steps
// would, and a cancellation mid-execution discards the partial batch and
// publishes the batch-start boundary. On success *cur advances past the
// window.
func (sh *shardState) stepBatch(ctx context.Context, cur *Cursor, id faultmodel.ID, n, stride int) error {
	start := *cur
	if err := ctx.Err(); err != nil {
		sh.cursor = start
		sh.publish(start)
		return err
	}
	if err := sh.ensureInjector(); err != nil {
		return err
	}

	// Pre-draw: predict each cursor's target execution. Prediction replays
	// the first draw of the experiment's own cursor-derived stream, so
	// grouping cannot change any value the experiment will draw.
	entries := make([]batchEntry, n)
	order := make([]*batchEntry, 0, n)
	for i := range entries {
		c := start
		c.Sample += i * stride
		entries[i].cur = c
		if sh.quarantined[c] {
			entries[i].skip = true
			continue
		}
		entries[i].exec = sh.inj.PredictTarget(experimentSeed(sh.seed, c))
		order = append(order, &entries[i])
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].exec < order[j].exec })

	// Execution phase, site-grouped order: results are buffered, nothing is
	// committed yet.
	groups := 0
	for i, e := range order {
		if i == 0 || e.exec != order[i-1].exec {
			groups++
		}
		if err := ctx.Err(); err != nil {
			sh.cursor = start
			sh.publish(start)
			return err
		}
		r, fault, err := sh.attempt(ctx, e.cur, id, -1)
		if err != nil {
			if isCancellation(err) {
				sh.cursor = start
				sh.publish(start)
			}
			return err
		}
		e.r, e.fault = r, fault
	}
	if tel := sh.opts.Telemetry; tel != nil && len(order) > 0 {
		tel.RecordBatch(groups, len(order))
	}

	// Commit phase, cursor order: the identical state evolution n sequential
	// step calls would produce, including the publish cadence and the
	// failure-budget stop point (results past an exhausting cursor are
	// discarded, exactly as a sequential shard would never have run them).
	for i := range entries {
		e := &entries[i]
		if err := sh.boundary(ctx, e.cur); err != nil {
			return err
		}
		if e.skip {
			continue
		}
		if e.fault == nil {
			if sh.opts.observe != nil {
				sh.opts.observe(sh.index, e.cur, id, e.r)
			}
			sh.record(-1, id, e.r)
			continue
		}
		sh.quarantineExperiment(e.cur, id, e.fault)
		if b := sh.opts.failureBudget(); b >= 0 && sh.failures > b {
			sh.cursor = e.cur
			sh.publish(e.cur)
			if tel := sh.opts.Telemetry; tel != nil {
				tel.SetShardBudget(sh.index, sh.failures, b, true)
			}
			return ErrShardExhausted
		}
	}
	cur.Sample += n * stride
	return nil
}

// run executes the shard's slice of the experiment space from its cursor.
// On context cancellation it publishes a consistent snapshot and returns the
// context's error; ErrShardExhausted degrades the shard; any other error is
// a campaign failure. Adaptive campaigns may also return nil with the shard
// not done: parked at a round barrier, waiting for the planner.
func (sh *shardState) run(ctx context.Context) error {
	if sh.opts.TargetCI > 0 {
		return sh.runAdaptive(ctx)
	}
	return sh.runFixed(ctx)
}

// runFixed is the fixed-count (Samples) campaign loop.
func (sh *shardState) runFixed(ctx context.Context) error {
	opts := sh.opts
	shards := opts.shards()
	ids := faultmodel.AllIDs()
	cur := sh.cursor

	for ; cur.Input < opts.Inputs; cur.Input, cur.Model = cur.Input+1, 0 {
		if err := sh.setInput(cur.Input); err != nil {
			return err
		}
		// The execution count is a function of the input alone, so it stays
		// valid across watchdog-forced injector rebuilds.
		nexec := sh.inj.Executions()
		// This shard's share of the per-(input, model) sample count.
		per := opts.Samples / opts.Inputs
		if cur.Input < opts.Samples%opts.Inputs {
			per++
		}
		mine := per / shards
		if sh.index < per%shards {
			mine++
		}
		if opts.PerLayer && sh.perLayer == nil {
			sh.perLayer = make([]map[faultmodel.ID]*Proportion, nexec)
			for e := range sh.perLayer {
				sh.perLayer[e] = map[faultmodel.ID]*Proportion{}
				for _, id := range faultmodel.AllIDs() {
					sh.perLayer[e][id] = &Proportion{}
				}
			}
		}
		for ; cur.Model < len(ids); cur.Model, cur.Exec, cur.Sample = cur.Model+1, 0, 0 {
			id := ids[cur.Model]
			// Global-control faults are modeled as always failing and never
			// pinned to a layer, so they take the flat loop in both modes.
			if opts.PerLayer && id != faultmodel.GlobalControl {
				for ; cur.Exec < nexec; cur.Exec, cur.Sample = cur.Exec+1, 0 {
					for ; cur.Sample < mine; cur.Sample++ {
						if err := sh.step(ctx, cur, id, cur.Exec); err != nil {
							return err
						}
					}
				}
				continue
			}
			// Flat mode: batch the sample loop. Global-control experiments
			// never draw a target (they classify without a forward pass), so
			// site grouping has nothing to amortize — they stay sequential.
			if opts.oracle || id == faultmodel.GlobalControl {
				for ; cur.Sample < mine; cur.Sample++ {
					if err := sh.step(ctx, cur, id, -1); err != nil {
						return err
					}
				}
				continue
			}
			for cur.Sample < mine {
				n := experimentBatch
				if rem := mine - cur.Sample; n > rem {
					n = rem
				}
				if err := sh.stepBatch(ctx, &cur, id, n, 1); err != nil {
					return err
				}
			}
		}
	}
	sh.done = true
	sh.cursor = Cursor{Input: opts.Inputs}
	sh.publish(sh.cursor)
	return nil
}

// dispatchShards runs every not-yet-done shard state through a pool of
// workers. Workers pull whole logical shards, so the partition of
// experiments onto random streams never depends on the worker count. On
// cancellation, shards still queued keep their initial (resumable)
// published state.
func dispatchShards(ctx context.Context, states []*shardState, workers int) {
	jobs := make(chan *shardState)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range jobs {
				if sh.done {
					continue
				}
				sh.err = sh.run(ctx)
			}
		}()
	}
feed:
	for _, sh := range states {
		select {
		case jobs <- sh:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
}

// assembleCheckpoint collects every shard's last published snapshot into one
// resumable campaign checkpoint.
func assembleCheckpoint(cfg *accel.Config, w *model.Workload, opts StudyOptions, states []*shardState) *Checkpoint {
	finals := make([]ShardCheckpoint, len(states))
	for i, sh := range states {
		finals[i] = sh.snapshot()
	}
	return NewCheckpoint(cfg, w, opts, finals)
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func phaseStart(tel *telemetry.Collector, name string) {
	if tel != nil {
		tel.StartPhase(name)
	}
}

func phaseEnd(tel *telemetry.Collector, name string) {
	if tel != nil {
		tel.EndPhase(name)
	}
}

// Study runs the fault-injection study for one workload on design cfg and
// computes its Accelerator_FIT_rate.
//
// The campaign is cancellable, resumable and observable: cancelling ctx
// stops every worker at an experiment boundary and returns *Interrupted
// carrying a checkpoint (also saved to opts.CheckpointPath when set) from
// which opts.Resume continues the study to the identical StudyResult an
// uninterrupted run would have produced.
func Study(ctx context.Context, cfg *accel.Config, w *model.Workload, opts StudyOptions) (*StudyResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	tel := opts.Telemetry
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		return nil, err
	}

	// Trace once for the Eq. 2 layer specs.
	phaseStart(tel, "trace")
	x0, err := dataset.Sample(w.Dataset, 0)
	if err != nil {
		phaseEnd(tel, "trace")
		return nil, err
	}
	_, execs := w.Net.Trace(x0)
	phaseEnd(tel, "trace")

	// Build the logical shards, restoring from a matching checkpoint. All
	// shards of this run share one golden trace per input.
	if !opts.oracle {
		opts.golden = &goldenCache{}
	}
	shards := opts.shards()
	states := make([]*shardState, shards)
	resume := opts.Resume
	if resume != nil && !resume.Matches(cfg, w, opts, shards) {
		resume = nil
	}
	for s := range states {
		states[s] = newShardState(s, shardSeed(opts.Seed, s), w, models, opts)
		if resume != nil {
			states[s].restore(resume.Shard[s])
		}
	}

	// Periodic checkpoint saver: assembles the shards' published snapshots.
	stopSaver := func() {}
	if opts.CheckpointPath != "" && opts.CheckpointInterval > 0 {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(opts.CheckpointInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					// Best-effort: a failed periodic save must not kill the
					// campaign; the on-cancel save reports errors.
					_ = saveCheckpoint(assembleCheckpoint(cfg, w, opts, states), opts.CheckpointPath, opts)
				case <-stop:
					return
				}
			}
		}()
		stopSaver = func() { close(stop); <-done }
	}

	// Worker pool: workers pull whole logical shards, so the partition of
	// experiments onto random streams never depends on the worker count.
	workers := opts.Workers
	if workers <= 1 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}
	phaseStart(tel, "inject")
	tilesBase := nn.TileCount()
	if opts.TargetCI > 0 {
		runAdaptiveCampaign(ctx, states, workers, StrataFor(opts.PerLayer, len(execs)), opts)
	} else {
		dispatchShards(ctx, states, workers)
	}
	phaseEnd(tel, "inject")
	if tel != nil {
		// Tile counts are process-wide; the delta attributes this study's
		// inject phase (approximate when studies run concurrently).
		tel.AddKernelTiles(nn.TileCount() - tilesBase)
	}
	stopSaver()

	interrupted, partial := false, false
	for _, sh := range states {
		switch {
		case errors.Is(sh.err, ErrShardExhausted):
			partial = true // the shard degraded but its published state is consistent
		case sh.err == nil && !sh.done:
			interrupted = true // never started before cancellation
		case sh.err != nil && isCancellation(sh.err):
			interrupted = true
		case sh.err != nil:
			return nil, sh.err
		}
	}
	if interrupted {
		cp := assembleCheckpoint(cfg, w, opts, states)
		path := ""
		if opts.CheckpointPath != "" {
			if err := saveCheckpoint(cp, opts.CheckpointPath, opts); err != nil {
				return nil, fmt.Errorf("campaign: interrupted, and saving the checkpoint failed: %w", err)
			}
			path = opts.CheckpointPath
		}
		return nil, &Interrupted{Checkpoint: cp, Path: path, Cause: context.Cause(ctx)}
	}
	if partial && opts.CheckpointPath != "" {
		// Best-effort: the partial result is flagged either way, and the
		// checkpoint lets a later run (with the failure fixed) complete it.
		_ = saveCheckpoint(assembleCheckpoint(cfg, w, opts, states), opts.CheckpointPath, opts)
	}
	// Assemble the result from the shards' final published snapshots — the
	// identical code path a distributed coordinator runs on the checkpoints
	// it collected from remote workers, so an in-process study and a fabric
	// run with the same (Seed, Shards) produce byte-identical StudyResult
	// JSON. The snapshots are exact here: every terminal shard (done or
	// budget-exhausted) published its final state before returning, and
	// assembleResult re-derives Partial from the non-done shards.
	finals := make([]ShardCheckpoint, len(states))
	for i, sh := range states {
		finals[i] = sh.snapshot()
	}
	return assembleResult(cfg, w, opts, finals, execs, models)
}

// SensitivityBounds recomputes the FIT rate under perturbed estimates: the
// FF count scaled by ±ffDelta and every Prob_inactive scaled by ±actDelta
// (clamped to [0, 1]). This is the paper's sensitivity-analysis mode for
// early design phases, where the microarchitectural inputs are estimates:
// the bounds bracket the FIT rate without re-running any injections.
func SensitivityBounds(ctx context.Context, cfg *accel.Config, res *StudyResult, ffDelta, actDelta float64) (lo, hi float64, err error) {
	if res.Layers == nil {
		return 0, 0, fmt.Errorf("campaign: study result carries no layer stats")
	}
	if ffDelta < 0 || ffDelta >= 1 || actDelta < 0 || actDelta > 1 {
		return 0, 0, fmt.Errorf("campaign: deltas out of range (ff=%v, act=%v)", ffDelta, actDelta)
	}
	eval := func(ffScale, actScale float64) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		c := *cfg
		c.NumFFs = int(float64(cfg.NumFFs) * ffScale)
		if c.NumFFs < 1 {
			c.NumFFs = 1
		}
		layers := make([]fit.LayerStats, len(res.Layers))
		for i, l := range res.Layers {
			m := fit.LayerStats{
				Layer: l.Layer, ExecTime: l.ExecTime,
				ProbInactive: map[accel.Category]float64{},
				ProbMasked:   l.ProbMasked,
			}
			for cat, p := range l.ProbInactive {
				p *= actScale
				if p > 1 {
					p = 1
				}
				m.ProbInactive[cat] = p
			}
			layers[i] = m
		}
		r, err := fit.Compute(&c, res.RawPerFF, layers)
		if err != nil {
			return 0, err
		}
		return r.Total, nil
	}
	// Worst case: more FFs, less inactivity. Best case: the opposite.
	hi, err = eval(1+ffDelta, 1-actDelta)
	if err != nil {
		return 0, 0, err
	}
	lo, err = eval(1-ffDelta, 1+actDelta)
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}
