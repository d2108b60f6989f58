package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/telemetry"
)

// The oracle suite. The production engine has exactly one execution path:
// incremental golden replay with dirty-region sweeps over tiled kernels,
// site-grouped experiment batching, and one golden trace per input shared by
// every shard. Each of those is a pure performance optimization, so the
// engine must produce StudyResult JSON and checkpoints byte-identical to the
// oracle (StudyOptions.oracle): goldens traced without replay so every
// experiment is a plain full forward pass, the unbatched step loop, and
// per-shard golden tracing. The tiled kernels themselves are proven against
// per-neuron Site.ComputeNeuron in the nn package.

// studyJSON runs a study and marshals its result.
func studyJSON(t *testing.T, w *model.Workload, opts StudyOptions) []byte {
	t.Helper()
	res, err := Study(context.Background(), accel.NVDLASmall(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// installGoldenClamps range-restricts every compute site of w to its golden
// min/max envelope over the campaign's inputs — the clamps the hardening
// loop derives (harden.Profile), installed directly because campaign cannot
// import harden.
func installGoldenClamps(t *testing.T, w *model.Workload, inputs int) {
	t.Helper()
	env := map[nn.Site]nn.Bound{}
	for idx := 0; idx < inputs; idx++ {
		x, err := dataset.Sample(w.Dataset, idx)
		if err != nil {
			t.Fatal(err)
		}
		w.Net.ForwardWithHook(x, func(l nn.Layer, _ int, op *nn.Operands) {
			s, ok := l.(nn.Site)
			if !ok {
				return
			}
			d := op.Out.Data()
			b, seen := env[s]
			if !seen {
				b = nn.Bound{Lo: d[0], Hi: d[0]}
			}
			for _, v := range d {
				b.Lo, b.Hi = min(b.Lo, v), max(b.Hi, v)
			}
			env[s] = b
		})
	}
	for s, b := range env {
		w.Net.SetClamp(s, b)
	}
	if !w.Net.Hardened() {
		t.Fatal("no clamps installed")
	}
}

// TestReplayDifferentialZoo runs the same small study through the optimised
// engine and through the oracle for every zoo network at every datapath
// precision, plus a range-restricted mobilenet, and requires byte-identical
// StudyResult JSON (tallies, CIs, FIT bounds, perturbation stats —
// everything). Two shards give each shard six experiments per fault model,
// so batch windows form real site groups.
func TestReplayDifferentialZoo(t *testing.T) {
	type cell struct {
		name     string
		net      string
		prec     numerics.Precision
		hardened bool
	}
	var cells []cell
	for _, name := range model.Names() {
		for _, prec := range []numerics.Precision{numerics.FP16, numerics.INT16, numerics.INT8} {
			cells = append(cells, cell{name + "/" + prec.String(), name, prec, false})
		}
	}
	cells = append(cells, cell{"mobilenet-hardened/FP16", "mobilenet", numerics.FP16, true})
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			w, err := model.Build(c.net, c.prec, 42)
			if err != nil {
				t.Fatal(err)
			}
			opts := StudyOptions{Samples: 12, Inputs: 1, Tolerance: 0.1, Seed: 7, Shards: 2, Workers: 2}
			if c.hardened {
				installGoldenClamps(t, w, opts.Inputs)
				opts.Hardening = "golden-clamps"
			}
			want := studyJSON(t, w, opts)
			opts.oracle = true
			if got := studyJSON(t, w, opts); !bytes.Equal(want, got) {
				t.Errorf("StudyResult JSON differs from the oracle:\noptimised: %s\noracle:    %s", want, got)
			}
		})
	}
}

// TestBatchTilingDifferential runs every zoo topology at FP16, plus
// mobilenet at the integer precisions, with one shard, so each fault model's
// samples form a single batch window of 12 experiments over tiled kernels,
// and requires StudyResult JSON byte-identical to the oracle's. The
// optimised run's telemetry must show that batching and tiling really ran.
func TestBatchTilingDifferential(t *testing.T) {
	type cell struct {
		net  string
		prec numerics.Precision
	}
	var cells []cell
	for _, name := range model.Names() {
		cells = append(cells, cell{name, numerics.FP16})
	}
	cells = append(cells, cell{"mobilenet", numerics.INT16}, cell{"mobilenet", numerics.INT8})
	for _, c := range cells {
		t.Run(c.net+"/"+c.prec.String(), func(t *testing.T) {
			w, err := model.Build(c.net, c.prec, 42)
			if err != nil {
				t.Fatal(err)
			}
			opts := StudyOptions{Samples: 12, Inputs: 1, Tolerance: 0.1, Seed: 7, Shards: 1, Workers: 1}
			tel := telemetry.New()
			opts.Telemetry = tel
			want := studyJSON(t, w, opts)
			snap := tel.Snapshot()
			if bs := snap.Batch; bs == nil || bs.Batches <= 0 || bs.SiteGroups <= 0 {
				t.Errorf("optimised run did not batch: %+v", bs)
			}
			if ks := snap.Kernels; ks == nil || ks.Tiles <= 0 {
				t.Errorf("optimised run did not use tiled kernels: %+v", ks)
			}
			opts.Telemetry = nil
			opts.oracle = true
			if got := studyJSON(t, w, opts); !bytes.Equal(want, got) {
				t.Errorf("StudyResult JSON differs from the oracle:\noptimised: %s\noracle:    %s", want, got)
			}
		})
	}
}

// checkpointBase is the campaign the checkpoint identity tests interrupt.
// One shard gives 80 experiments per (input, fault model), so the first
// fault model's samples run as one full 64-experiment batch window followed
// by a 16-experiment remainder window.
var checkpointBase = StudyOptions{Samples: 160, Inputs: 2, Tolerance: 0.1, Seed: 13, Shards: 1, Workers: 1}

// interruptAt runs the checkpoint identity campaign on the optimised path or
// the oracle, cancels it right after the n-th observed experiment and returns
// its checkpoint. Workers=1 plus a synchronous per-experiment observer makes
// the interruption point exact: both paths stop after the same experiments.
func interruptAt(t *testing.T, w *model.Workload, oracle bool, n int) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := checkpointBase
	opts.oracle = oracle
	count := 0
	opts.observe = func(int, Cursor, faultmodel.ID, inject.Result) {
		if count++; count == n {
			cancel()
		}
	}
	_, err := Study(ctx, accel.NVDLASmall(), w, opts)
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("oracle=%v: interrupted study returned %v, want *Interrupted", oracle, err)
	}
	b, err := json.Marshal(intr.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireCheckpointIdentity interrupts the checkpoint identity campaign after
// n experiments on both paths, requires byte-identical checkpoints, and then
// cross-resumes each checkpoint under the other path: both resumes must
// reproduce the uninterrupted baseline exactly. The execution path is
// deliberately not part of the checkpoint identity.
func requireCheckpointIdentity(t *testing.T, w *model.Workload, baseline *StudyResult, n int) {
	t.Helper()
	bOpt := interruptAt(t, w, false, n)
	bOracle := interruptAt(t, w, true, n)
	if !bytes.Equal(bOpt, bOracle) {
		t.Errorf("checkpoints differ between the optimised path and the oracle:\noptimised: %s\noracle:    %s", bOpt, bOracle)
	}
	resume := func(label string, b []byte, oracle bool) {
		t.Helper()
		var cp Checkpoint
		if err := json.Unmarshal(b, &cp); err != nil {
			t.Fatal(err)
		}
		opts := checkpointBase
		opts.oracle = oracle
		opts.Resume = &cp
		res, err := Study(context.Background(), accel.NVDLASmall(), w, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireEqualResults(t, label, baseline, res)
	}
	resume("optimised checkpoint resumed on the oracle", bOpt, true)
	resume("oracle checkpoint resumed optimised", bOracle, false)
}

// TestReplayCheckpointIdentity interrupts the campaign at its 100th
// experiment — mid-way through the second fault model's full 64-experiment
// batch window — on both paths: batches commit at experiment boundaries
// only, and an interrupt can never surface a half-committed batch.
func TestReplayCheckpointIdentity(t *testing.T) {
	w := engineWorkload(t)
	baseline, err := Study(context.Background(), accel.NVDLASmall(), w, checkpointBase)
	if err != nil {
		t.Fatal(err)
	}
	requireCheckpointIdentity(t, w, baseline, 100)
}

// TestBatchCheckpointIdentity interrupts the campaign at the edges of its
// batch windows: the last experiment of the first full window (64), the
// first of the remainder window (65), the end of the first fault model's
// samples (80) and the first experiment of the next fault model (81).
func TestBatchCheckpointIdentity(t *testing.T) {
	w := engineWorkload(t)
	baseline, err := Study(context.Background(), accel.NVDLASmall(), w, checkpointBase)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{64, 65, 80, 81} {
		t.Run(fmt.Sprintf("observe-%d", n), func(t *testing.T) {
			requireCheckpointIdentity(t, w, baseline, n)
		})
	}
}

// TestReplayTelemetryPresence checks the nil-when-absent contract of the
// telemetry Replay block: present (with sane ratios) when the replay engine
// ran, absent entirely on the oracle's full forward passes.
func TestReplayTelemetryPresence(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := StudyOptions{Samples: 12, Inputs: 1, Tolerance: 0.1, Seed: 3}

	tel := telemetry.New()
	opts := base
	opts.Telemetry = tel
	if _, err := Study(context.Background(), cfg, w, opts); err != nil {
		t.Fatal(err)
	}
	rep := tel.Snapshot().Replay
	if rep == nil {
		t.Fatal("replay-enabled study produced no telemetry Replay block")
	}
	if rep.LayersSkipped <= 0 {
		t.Errorf("LayersSkipped = %d, want > 0", rep.LayersSkipped)
	}
	if rep.CacheHitRatio <= 0 || rep.CacheHitRatio > 1 {
		t.Errorf("CacheHitRatio = %v, want in (0, 1]", rep.CacheHitRatio)
	}
	if rep.ArenaReuses <= 0 {
		t.Errorf("ArenaReuses = %d, want > 0", rep.ArenaReuses)
	}
	if rep.MACsAvoidedEst <= 0 {
		t.Errorf("MACsAvoidedEst = %v, want > 0", rep.MACsAvoidedEst)
	}

	tel = telemetry.New()
	opts = base
	opts.Telemetry = tel
	opts.oracle = true
	if _, err := Study(context.Background(), cfg, w, opts); err != nil {
		t.Fatal(err)
	}
	if got := tel.Snapshot().Replay; got != nil {
		t.Errorf("oracle study produced a telemetry Replay block: %+v", got)
	}
}

// TestBatchTelemetryPresence checks the batch telemetry block's
// nil-when-unbatched contract, and that batched runs report site groups
// bounded by the batched experiment count.
func TestBatchTelemetryPresence(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := StudyOptions{Samples: 24, Inputs: 1, Tolerance: 0.1, Seed: 3}

	tel := telemetry.New()
	opts := base
	opts.Telemetry = tel
	if _, err := Study(context.Background(), cfg, w, opts); err != nil {
		t.Fatal(err)
	}
	bs := tel.Snapshot().Batch
	if bs == nil {
		t.Fatal("batched study produced no telemetry Batch block")
	}
	if bs.Batches <= 0 || bs.Experiments <= 0 {
		t.Errorf("batch counters not populated: %+v", bs)
	}
	if bs.SiteGroups <= 0 || bs.SiteGroups > bs.Experiments {
		t.Errorf("SiteGroups = %d, want in (0, %d]", bs.SiteGroups, bs.Experiments)
	}
	if ks := tel.Snapshot().Kernels; ks == nil || ks.Tiles <= 0 {
		t.Errorf("tiled-kernel telemetry missing or zero: %+v", ks)
	}

	tel = telemetry.New()
	opts = base
	opts.Telemetry = tel
	opts.oracle = true
	if _, err := Study(context.Background(), cfg, w, opts); err != nil {
		t.Fatal(err)
	}
	if got := tel.Snapshot().Batch; got != nil {
		t.Errorf("oracle study produced a telemetry Batch block: %+v", got)
	}
}
