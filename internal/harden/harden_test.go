package harden

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/dataset"
	"fidelity/internal/fit"
	"fidelity/internal/model"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/telemetry"
)

// buildWorkload returns a fresh deterministic zoo workload.
func buildWorkload(t *testing.T, name string) *model.Workload {
	t.Helper()
	w, err := model.Build(name, numerics.FP16, 42)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// hardenedWorkload profiles w's golden envelopes over the campaign input
// set and returns a fresh copy with the clamps installed, plus the config.
func hardenedWorkload(t *testing.T, name string, inputs int) (*model.Workload, Config) {
	t.Helper()
	w := buildWorkload(t, name)
	prof, err := Profile(w, inputs)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := RangeRestriction{Envelopes: prof}.Plan(nil, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hw := buildWorkload(t, name)
	if err := cfg.Apply(hw.Net); err != nil {
		t.Fatal(err)
	}
	return hw, cfg
}

// TestProfileEnvelopeIdentity is the fixed-point property the whole design
// rests on: clamps derived from golden envelopes are the identity on golden
// forward passes, so the hardened network's clean behavior is bit-identical
// to the unhardened one.
func TestProfileEnvelopeIdentity(t *testing.T) {
	const inputs = 2
	for _, name := range []string{"mobilenet", "inception"} {
		plain := buildWorkload(t, name)
		hw, cfg := hardenedWorkload(t, name, inputs)
		if !hw.Net.Hardened() {
			t.Fatalf("%s: clamps did not install", name)
		}
		if len(cfg.Clamps) == 0 {
			t.Fatalf("%s: empty clamp set", name)
		}
		for idx := 0; idx < inputs; idx++ {
			x, err := dataset.Sample(plain.Dataset, idx)
			if err != nil {
				t.Fatal(err)
			}
			want := plain.Net.Forward(x).Data()
			got := hw.Net.Forward(x).Data()
			if len(want) != len(got) {
				t.Fatalf("%s input %d: output sizes differ", name, idx)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s input %d: hardened golden differs at %d: %v != %v",
						name, idx, i, got[i], want[i])
				}
			}
		}
	}
}

// TestClampSaturation: a deliberately shrunken envelope must saturate
// out-of-range values and count them, and every output value must land
// inside the bound.
func TestClampSaturation(t *testing.T) {
	w := buildWorkload(t, "mobilenet")
	x, err := dataset.Sample(w.Dataset, 0)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Halve the first site's envelope so golden values saturate.
	tight := prof[0]
	tight.Lo, tight.Hi = tight.Lo/2, tight.Hi/2
	hw := buildWorkload(t, "mobilenet")
	if err := (&Config{Clamps: []Envelope{tight}}).Apply(hw.Net); err != nil {
		t.Fatal(err)
	}
	ctx := nn.NewContext(nil)
	hw.Net.ForwardWithContext(x, ctx)
	hs := ctx.HardenStats()
	if hs.ClampApplications == 0 {
		t.Fatal("clamped site executed but ClampApplications == 0")
	}
	if hs.Saturated == 0 {
		t.Fatal("shrunken envelope saturated nothing — profile range was not exercised")
	}
}

// TestConfigFingerprint: zero config is the empty fingerprint (legacy
// checkpoint compatibility); non-zero configs digest canonically
// (order-insensitive) and every field participates.
func TestConfigFingerprint(t *testing.T) {
	var zero Config
	fp, err := zero.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != "" {
		t.Fatalf("zero config fingerprint = %q, want empty", fp)
	}

	a := Config{Clamps: []Envelope{{Site: "a", Lo: -1, Hi: 1}, {Site: "b", Lo: 0, Hi: 2}}}
	b := Config{Clamps: []Envelope{{Site: "b", Lo: 0, Hi: 2}, {Site: "a", Lo: -1, Hi: 1}}}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa == "" || fa != fb {
		t.Fatalf("clamp order changed the fingerprint: %q vs %q", fa, fb)
	}
	c := a
	c.ProtectGlobal = true
	fc, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fc == fa {
		t.Fatal("ProtectGlobal did not change the fingerprint")
	}
	d := a
	d.Duplicated = []string{"conv#0"}
	fd, err := d.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fd == fa || fd == fc {
		t.Fatal("Duplicated did not change the fingerprint")
	}
}

// TestHardenedCampaignWorkerDeterminism: the hardened campaign's StudyResult
// must be byte-identical across {1, 2, 4} workers — clamps live inside the
// replay-aware forward path, so none of the engine's determinism contracts
// may erode. (The campaign package's oracle suite proves a hardened cell
// byte-identical to the full-forward reference path.) Run with -race.
func TestHardenedCampaignWorkerDeterminism(t *testing.T) {
	cfg := accel.NVDLASmall()
	hw, hcfg := hardenedWorkload(t, "mobilenet", 2)
	fp, err := hcfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	base := campaign.StudyOptions{
		Samples: 60, Inputs: 2, Tolerance: 0.1, Seed: 9, Hardening: fp,
	}
	run := func(workers int) []byte {
		opts := base
		opts.Workers = workers
		res, err := campaign.Study(context.Background(), cfg, hw, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		enc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	ref := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); string(got) != string(ref) {
			t.Errorf("workers=%d: hardened StudyResult bytes differ from workers=1", workers)
		}
	}
}

// TestHardenedInterruptResume: a hardened campaign interrupted mid-flight
// and resumed from its checkpoint reproduces the uninterrupted result
// byte-for-byte, and its checkpoint carries the hardening fingerprint so an
// unhardened campaign refuses to resume from it (and vice versa).
func TestHardenedInterruptResume(t *testing.T) {
	cfg := accel.NVDLASmall()
	hw, hcfg := hardenedWorkload(t, "mobilenet", 2)
	fp, err := hcfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	base := campaign.StudyOptions{
		Samples: 240, Inputs: 2, Tolerance: 0.1, Seed: 11, Workers: 4, Hardening: fp,
	}
	baseline, err := campaign.Study(context.Background(), cfg, hw, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}

	ckptPath := filepath.Join(t.TempDir(), "harden.checkpoint.json")
	tel := telemetry.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	go func() {
		defer cancel()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if tel.Experiments() >= 150 {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	opts := base
	opts.Telemetry = tel
	opts.CheckpointPath = ckptPath
	_, err = campaign.Study(ctx, cfg, hw, opts)
	close(stop)
	var intr *campaign.Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("interrupted hardened study returned %v, want *Interrupted", err)
	}
	cp := intr.Checkpoint
	if cp.Hardening != fp {
		t.Fatalf("checkpoint hardening = %q, want %q", cp.Hardening, fp)
	}

	// The hardened checkpoint must not match an unhardened campaign (or a
	// differently hardened one), and an unhardened checkpoint must not match
	// the hardened options.
	plain := base
	plain.Hardening = ""
	if cp.Matches(cfg, hw, plain, cp.Shards) {
		t.Error("hardened checkpoint matched unhardened options")
	}
	other := base
	other.Hardening = "not-the-fingerprint"
	if cp.Matches(cfg, hw, other, cp.Shards) {
		t.Error("hardened checkpoint matched a different hardening fingerprint")
	}
	if !cp.Matches(cfg, hw, base, cp.Shards) {
		t.Error("hardened checkpoint did not match its own options")
	}

	resume := base
	resume.Resume = cp
	res, err := campaign.Study(context.Background(), cfg, hw, resume)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("resumed hardened StudyResult bytes differ from uninterrupted run")
	}
}

// TestHardenTelemetry: hardened campaigns must surface the harden snapshot
// block (clamp applications; saturations only under injected faults), and
// unhardened campaigns must not.
func TestHardenTelemetry(t *testing.T) {
	cfg := accel.NVDLASmall()
	hw, _ := hardenedWorkload(t, "mobilenet", 1)
	tel := telemetry.New()
	_, err := campaign.Study(context.Background(), cfg, hw, campaign.StudyOptions{
		Samples: 20, Inputs: 1, Tolerance: 0.1, Seed: 5, Workers: 2, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if snap.Harden == nil {
		t.Fatal("hardened campaign snapshot has no harden block")
	}
	if snap.Harden.ClampApplications == 0 {
		t.Error("hardened campaign recorded no clamp applications")
	}

	plainTel := telemetry.New()
	w := buildWorkload(t, "mobilenet")
	_, err = campaign.Study(context.Background(), cfg, w, campaign.StudyOptions{
		Samples: 20, Inputs: 1, Tolerance: 0.1, Seed: 5, Workers: 2, Telemetry: plainTel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plainTel.Snapshot().Harden != nil {
		t.Error("unhardened campaign snapshot carries a harden block")
	}
}

// TestRecommendationSearch: the search must include global-control
// protection exactly when the measured global floor exceeds the budget, and
// return a config whose modeled residual meets the budget when one exists.
func TestRecommendationSearch(t *testing.T) {
	cfg := accel.NVDLASmall()
	hw, hcfg := hardenedWorkload(t, "mobilenet", 1)
	fp, err := hcfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	study, err := campaign.Study(context.Background(), cfg, hw, campaign.StudyOptions{
		Samples: 12, Inputs: 1, Tolerance: 0.1, Seed: 7, Workers: 2, PerLayer: true, Hardening: fp,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := RecommendationSearch{}.Plan(cfg, study, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.ProtectGlobal {
		t.Error("recommendation left global-control FFs unprotected, but their floor exceeds the FF budget")
	}
	dup := make(map[string]bool, len(out.Duplicated))
	for _, l := range out.Duplicated {
		dup[l] = true
	}
	res, err := fit.ComputeProtected(cfg, study.RawPerFF, fit.DuplicateLayers(study.Layers, dup))
	if err != nil {
		t.Fatal(err)
	}
	if !fit.MeetsASILD(res) {
		t.Errorf("recommended config's modeled residual %.4f misses the FF budget %.4f", res.Total, fit.FFBudget())
	}
}

// TestPipelineRun: the closed loop end to end on the cheapest workload, with
// determinism across repeat runs.
func TestPipelineRun(t *testing.T) {
	opts := Options{
		Net: "mobilenet", Precision: numerics.FP16,
		Samples: 8, Inputs: 1, Tolerance: 0.1, Seed: 3, Workers: 2,
	}
	rep, err := Run(context.Background(), accel.NVDLASmall(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Before.Experiments == 0 || rep.After.Experiments == 0 {
		t.Fatal("pipeline ran no experiments")
	}
	if rep.Fingerprint == "" {
		t.Error("pipeline produced an empty hardening fingerprint")
	}
	if len(rep.Config.Clamps) == 0 {
		t.Error("pipeline recommended no clamps")
	}
	if rep.HardenedFIT > rep.After.FIT {
		t.Errorf("hardened FIT %.4f exceeds the measured clamped FIT %.4f", rep.HardenedFIT, rep.After.FIT)
	}
	if !rep.MeetsASILD {
		t.Errorf("recommended config misses the budget: hardened FIT %.4f vs %.4f", rep.HardenedFIT, rep.BudgetFIT)
	}

	again, err := Run(context.Background(), accel.NVDLASmall(), opts)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Error("pipeline report is not deterministic across identical runs")
	}
}
