package campaign

// The per-shard entry points of the campaign engine, exported so a
// distributed fabric (internal/distrib) can relocate shards onto remote
// workers. A logical shard is a perfectly relocatable unit of work: its
// experiment stream is derived from (Seed, Shards, cursor) alone, its
// resumable state is one ShardCheckpoint, and RunShard + AssembleResult are
// the exact code paths the in-process Study uses — so a campaign fanned out
// over any number of workers, with any pattern of lease expiries and
// re-runs, assembles a StudyResult byte-identical to a single-process run.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/activeness"
	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/fit"
	"fidelity/internal/model"
	"fidelity/internal/nn"
)

// ShardRun configures one RunShard call.
type ShardRun struct {
	// Index is the logical shard to execute, in [0, opts.shards()).
	Index int
	// Resume, when non-nil, is a previously published checkpoint of this
	// shard; execution continues bit-identically from its cursor. The caller
	// is responsible for campaign-identity matching (a coordinator checks the
	// enclosing Checkpoint.Matches before handing shards out).
	Resume *ShardCheckpoint
	// OnProgress, when non-nil, receives consistent point-in-time shard
	// checkpoints: every Interval while the shard runs, and one final call
	// with the shard's terminal state before RunShard returns. Calls are
	// never concurrent with each other.
	OnProgress func(ShardCheckpoint)
	// Interval is the OnProgress streaming cadence (0 = final call only).
	Interval time.Duration
	// PublishEvery overrides the experiment cadence between published
	// snapshots (0 = the engine default). Streamed checkpoints can be at
	// most this many experiments stale; distributed workers lower it so a
	// re-leased shard loses little work.
	PublishEvery int
}

// RunShard executes one logical shard of the campaign defined by
// (cfg, w, opts) and returns its final published checkpoint. It is the
// exported form of the per-shard run loop Study drives on its worker pool,
// and obeys the same contract:
//
//   - nil error: the shard completed every experiment (checkpoint.Done).
//   - ErrShardExhausted: the shard spent its failure budget and degraded;
//     the checkpoint is consistent and resumable.
//   - a context error: the run was cancelled at an experiment boundary; the
//     checkpoint is consistent and resumable.
//   - any other error: a campaign failure (bad configuration, dataset error);
//     the checkpoint carries the shard's state at the failure boundary.
//
// Adaptive campaigns (opts.TargetCI > 0) add one terminal form: a nil error
// with a checkpoint that is not Done but AdaptiveParked — the shard executed
// every round its checkpoint records and is waiting at the round barrier for
// the planner (the in-process barrier loop or a distributed coordinator) to
// extend its History or finalize it.
func RunShard(ctx context.Context, cfg *accel.Config, w *model.Workload, opts StudyOptions, run ShardRun) (ShardCheckpoint, error) {
	if err := opts.validate(); err != nil {
		return ShardCheckpoint{}, err
	}
	shards := opts.shards()
	if run.Index < 0 || run.Index >= shards {
		return ShardCheckpoint{}, fmt.Errorf("campaign: shard index %d out of range [0, %d)", run.Index, shards)
	}
	if run.Resume != nil && run.Resume.Index != run.Index {
		return ShardCheckpoint{}, fmt.Errorf("campaign: resume checkpoint is for shard %d, not %d", run.Resume.Index, run.Index)
	}
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		return ShardCheckpoint{}, err
	}
	if !opts.oracle {
		opts.golden = &goldenCache{}
	}
	sh := newShardState(run.Index, shardSeed(opts.Seed, run.Index), w, models, opts)
	if run.PublishEvery > 0 {
		sh.publishEvery = run.PublishEvery
	}
	if run.Resume != nil {
		sh.restore(*run.Resume)
	}

	var runErr error
	if !sh.done {
		stopStream := func() {}
		if run.OnProgress != nil && run.Interval > 0 {
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				t := time.NewTicker(run.Interval)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						run.OnProgress(sh.snapshot())
					case <-stop:
						return
					}
				}
			}()
			stopStream = func() { close(stop); <-done }
		}
		runErr = sh.run(ctx)
		stopStream()
	}
	final := sh.snapshot()
	if run.OnProgress != nil {
		run.OnProgress(final)
	}
	return final, runErr
}

// AssembleResult computes the StudyResult of a campaign from its terminal
// per-shard checkpoints — one entry per logical shard, in index order, each
// either completed (Done) or degraded by an exhausted failure budget (not
// Done; the result is flagged Partial). It is the same assembly an
// in-process Study performs on its own shards' final snapshots, so a
// coordinator that collected checkpoints from remote workers produces a
// byte-identical StudyResult.
func AssembleResult(cfg *accel.Config, w *model.Workload, opts StudyOptions, shards []ShardCheckpoint) (*StudyResult, error) {
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		return nil, err
	}
	tel := opts.Telemetry
	phaseStart(tel, "trace")
	x0, err := dataset.Sample(w.Dataset, 0)
	if err != nil {
		phaseEnd(tel, "trace")
		return nil, err
	}
	_, execs := w.Net.Trace(x0)
	phaseEnd(tel, "trace")
	return assembleResult(cfg, w, opts, shards, execs, models)
}

// assembleResult aggregates terminal shard checkpoints and computes the
// Eq. 2 FIT rates. Integer tally sums commute, so the aggregate is
// independent of both worker scheduling and shard order; every downstream
// number is a pure function of the tallies.
func assembleResult(cfg *accel.Config, w *model.Workload, opts StudyOptions, shards []ShardCheckpoint,
	execs []nn.SiteExecution, models []faultmodel.Model) (*StudyResult, error) {
	if opts.RawFITPerMB == 0 {
		opts.RawFITPerMB = fit.RawFFFITPerMB
	}
	if n := opts.shards(); len(shards) != n {
		return nil, fmt.Errorf("campaign: assembling %d shard checkpoints, campaign has %d shards", len(shards), n)
	}
	res := &StudyResult{
		Workload:  w.Net.Name(),
		Precision: w.Net.Precision.String(),
		Tolerance: opts.Tolerance,
		Masked:    map[faultmodel.ID]*Proportion{},
	}
	for _, id := range faultmodel.AllIDs() {
		res.Masked[id] = &Proportion{}
	}

	var perLayer []map[faultmodel.ID]*Proportion
	if opts.PerLayer {
		perLayer = make([]map[faultmodel.ID]*Proportion, len(execs))
		for e := range perLayer {
			perLayer[e] = map[faultmodel.ID]*Proportion{}
			for _, id := range faultmodel.AllIDs() {
				perLayer[e][id] = &Proportion{}
			}
		}
	}
	for i, sc := range shards {
		if sc.Index != i {
			return nil, fmt.Errorf("campaign: shard checkpoint %d carries index %d", i, sc.Index)
		}
		if !sc.Done {
			// A terminal but not-done shard stopped early after exhausting
			// its failure budget: the campaign degrades to a partial result,
			// exactly as Study flags an ErrShardExhausted shard.
			res.Partial = true
		}
		for id, p := range sc.Masked {
			res.Masked[id].Successes += p.Successes
			res.Masked[id].Trials += p.Trials
		}
		for e, m := range sc.PerLayer {
			if perLayer == nil || e >= len(perLayer) {
				return nil, fmt.Errorf("campaign: shard %d carries per-layer tallies the campaign options do not", i)
			}
			for id, p := range m {
				perLayer[e][id].Successes += p.Successes
				perLayer[e][id].Trials += p.Trials
			}
		}
		res.Perturb.SmallFail.Successes += sc.Perturb.SmallFail.Successes
		res.Perturb.SmallFail.Trials += sc.Perturb.SmallFail.Trials
		res.Perturb.LargeFail.Successes += sc.Perturb.LargeFail.Successes
		res.Perturb.LargeFail.Trials += sc.Perturb.LargeFail.Trials
		res.Experiments += sc.Experiments
		res.Quarantined = append(res.Quarantined, sc.Quarantine...)
	}
	sort.Slice(res.Quarantined, func(i, j int) bool {
		a, b := res.Quarantined[i], res.Quarantined[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Cursor.before(b.Cursor)
	})

	// Assemble Eq. 2 inputs: per-layer activeness and exec time from the
	// performance model, masking probabilities from the campaign aggregate.
	tel := opts.Telemetry
	phaseStart(tel, "fit")
	defer phaseEnd(tel, "fit")
	specs, err := specsFromTrace(w, execs)
	if err != nil {
		return nil, err
	}
	perf, err := activeness.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	var layers []fit.LayerStats
	for li, spec := range specs {
		an, err := activeness.Analyze(cfg, perf, spec)
		if err != nil {
			return nil, err
		}
		ls := fit.LayerStats{
			Layer:        spec.Name,
			ExecTime:     float64(an.Breakdown.TotalCycles),
			ProbInactive: an.ProbInactive,
			ProbMasked:   map[accel.Category]float64{},
		}
		for _, m := range models {
			p := res.Masked[m.ID]
			if perLayer != nil && m.ID != faultmodel.GlobalControl {
				if lp := perLayer[li][m.ID]; lp.Trials > 0 {
					p = lp
				}
			}
			ls.ProbMasked[m.Cat] = p.Mean()
		}
		layers = append(layers, ls)
	}
	raw := fit.RawFITPerFF(opts.RawFITPerMB)
	res.Layers = layers
	res.RawPerFF = raw
	res.FIT, err = fit.Compute(cfg, raw, layers)
	if err != nil {
		return nil, err
	}
	res.FITProtected, err = fit.ComputeProtected(cfg, raw, layers)
	if err != nil {
		return nil, err
	}
	return res, nil
}
