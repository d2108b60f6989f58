package main

import (
	"context"
	"fmt"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/distrib"
	"fidelity/internal/faultmodel"
	"fidelity/internal/harden"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
	"fidelity/internal/telemetry"
)

const (
	// weightSeed seeds every network's weights, as the repository's CLIs do.
	// The run seed drives the campaigns, not the weights: experiments-to-CI
	// of the adaptive workloads varies up to 2.5x across weight seeds, far
	// beyond any regression bound, while across campaign seeds it stays
	// within a few percent.
	weightSeed = 42
	// inputs is every campaign's dataset input count (the Fig 4/6 cells).
	inputs = 2
	// tolerance is every campaign's application-score tolerance.
	tolerance = 0.1
	// publishEvery is fidelityd work's -publish-every default.
	publishEvery = 16
)

// campaignDef is one campaign of a workload.
type campaignDef struct {
	net      string
	prec     numerics.Precision
	samples  int     // fixed-count campaigns
	targetCI float64 // adaptive campaigns
	perLayer bool
}

func (d campaignDef) String() string { return d.net + "/" + d.prec.String() }

// options returns the campaign's study options for one campaign seed.
func (d campaignDef) options(seed int64, workers int) campaign.StudyOptions {
	return campaign.StudyOptions{
		Samples:   d.samples,
		TargetCI:  d.targetCI,
		Inputs:    inputs,
		Tolerance: tolerance,
		Seed:      seed,
		Workers:   workers,
		PerLayer:  d.perLayer,
	}
}

// spec returns the campaign as a fidelityd campaign spec, with the
// service's defaults for everything the definition leaves open.
func (d campaignDef) spec(seed int64) distrib.CampaignSpec {
	return distrib.CampaignSpec{
		Workload:     d.net,
		Precision:    d.prec.String(),
		WorkloadSeed: weightSeed,
		Tolerance:    tolerance,
		Samples:      d.samples,
		TargetCI:     d.targetCI,
		Inputs:       inputs,
		Seed:         seed,
		PerLayer:     d.perLayer,
	}.Normalize()
}

// workload is one benchmark workload: the campaigns of one iteration and
// how they run.
type workload struct {
	name      string
	why       string
	campaigns []campaignDef
	// harden installs golden-envelope clamps on every network.
	harden bool
	// loopback runs every campaign through an in-process fidelityd
	// coordinator served over loopback HTTP.
	loopback bool
	// panel is how many campaign seeds one iteration runs each campaign at.
	// Experiments-to-CI depends on the seed, so the adaptive workloads
	// average a panel to keep the per-run figures steady.
	panel int
	// smoke marks a smoke-test sized copy, which has no committed digests.
	smoke bool
}

var workloads = []workload{
	{
		name: "cnn-fp16",
		why:  "the paper's main experiment: FP16 conv tiles with per-MAC rounding, replay sweep and dirty-span diff, batches large enough to form site groups",
		campaigns: []campaignDef{
			{net: "inception", prec: numerics.FP16, samples: 400},
			{net: "resnet", prec: numerics.FP16, samples: 400},
			{net: "mobilenet", prec: numerics.FP16, samples: 400},
		},
		panel: 1,
	},
	{
		name: "seq-int8",
		why:  "Dense, MatMul, attention and LSTM with the integer codec and BLEU decode; no conv, no FP16 rounding, thousands of allocations per experiment",
		campaigns: []campaignDef{
			{net: "transformer", prec: numerics.INT8, samples: 100},
			{net: "rnn", prec: numerics.INT8, samples: 100},
		},
		panel: 1,
	},
	{
		name: "harden-adaptive",
		why:  "the fidelity harden re-campaign: clamped mobilenet, per-layer adaptive sampling, so planner rounds, shard barriers and clamp costs show",
		campaigns: []campaignDef{
			{net: "mobilenet", prec: numerics.FP16, targetCI: 0.05, perLayer: true},
		},
		harden: true,
		panel:  4,
	},
	{
		name: "fidelityd-loopback",
		why:  "the only workload through distrib: lease and report JSON, body digests and coordinator-side planning over loopback HTTP",
		campaigns: []campaignDef{
			{net: "mobilenet", prec: numerics.INT8, targetCI: 0.05, perLayer: true},
		},
		loopback: true,
		panel:    4,
	},
}

// findWorkload returns the workload called name.
func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q (have %v)", name, names)
}

// tiny returns the workload at smoke-test size: a handful of experiments
// per campaign and a single panel seed.
func (wl workload) tiny() workload {
	out := wl
	out.campaigns = make([]campaignDef, len(wl.campaigns))
	for i, d := range wl.campaigns {
		if d.samples > 0 {
			d.samples = 16
		} else {
			d.targetCI = 0.25
		}
		out.campaigns[i] = d
	}
	out.panel = 1
	out.smoke = true
	return out
}

// campaignSeed is the campaign seed of panel member j for run seed seed.
func (wl workload) campaignSeed(seed int64, j int) int64 {
	return seed*int64(wl.panel) + int64(j)
}

// instance is a workload's set-up state: the accelerator and one built (and,
// when the workload hardens, clamped) network per campaign.
type instance struct {
	cfg       *accel.Config
	nets      []*model.Workload
	hardening []string // StudyOptions.Hardening per campaign
}

// setup builds the workload's networks, installs clamps when the workload
// hardens, and derives the accelerator's fault models.
func setup(wl workload) (*instance, error) {
	cfg := accel.NVDLASmall()
	if _, err := faultmodel.Derive(cfg); err != nil {
		return nil, err
	}
	inst := &instance{cfg: cfg}
	for _, d := range wl.campaigns {
		w, err := model.Build(d.net, d.prec, weightSeed)
		if err != nil {
			return nil, err
		}
		fp := ""
		if wl.harden {
			if fp, err = installClamps(cfg, w); err != nil {
				return nil, err
			}
		}
		inst.nets = append(inst.nets, w)
		inst.hardening = append(inst.hardening, fp)
	}
	return inst, nil
}

// installClamps profiles w's golden activation envelopes over the campaign
// inputs, installs them as range-restriction clamps, and returns the
// config's fingerprint for StudyOptions.Hardening — the `fidelity harden`
// re-campaign's set-up.
func installClamps(cfg *accel.Config, w *model.Workload) (string, error) {
	prof, err := harden.Profile(w, inputs)
	if err != nil {
		return "", err
	}
	hc, err := harden.RangeRestriction{Envelopes: prof}.Plan(cfg, nil, harden.Config{})
	if err != nil {
		return "", err
	}
	if err := hc.Apply(w.Net); err != nil {
		return "", err
	}
	return hc.Fingerprint()
}

// campaignTiming is what one campaign of an iteration cost.
type campaignTiming struct {
	setup, wall time.Duration
	mallocs     uint64
	allocBytes  uint64
	// emptyLeases counts the lease requests of a loopback campaign that
	// came back without a shard: a worker that gets one sleeps the
	// coordinator's retry delay (a quarter of the lease TTL, longer than a
	// whole campaign here), so it shows how many workers finished the
	// campaign.
	emptyLeases int
}

// runCampaign runs campaign i of the workload at one campaign seed: in
// process with Study, or through a freshly started loopback coordinator.
func (inst *instance) runCampaign(ctx context.Context, wl workload, i int, seed int64, workers int) (campaignRun, campaignTiming, error) {
	d := wl.campaigns[i]
	label := fmt.Sprintf("%s seed %d", d, seed)
	var tm campaignTiming
	var lb *loopback
	if wl.loopback {
		start := time.Now()
		var err error
		if lb, err = startLoopback(d.spec(seed)); err != nil {
			return campaignRun{}, tm, err
		}
		tm.setup = time.Since(start)
	}
	before := memStats()
	var res *campaign.StudyResult
	var err error
	if lb != nil {
		ws := &wireStats{}
		res, tm.wall, err = lb.run(ctx, workers, ws.wrap)
		tm.emptyLeases = ws.emptyLeases
	} else {
		start := time.Now()
		res, err = inst.inProcess(ctx, wl, i, seed, workers, nil)
		tm.wall = time.Since(start)
	}
	after := memStats()
	tm.mallocs, tm.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if lb != nil {
		if cerr := lb.close(); cerr != nil {
			return campaignRun{}, tm, cerr
		}
	}
	return newCampaignRun(label, res, err), tm, nil
}

// inProcess runs campaign i at seed with Study, whatever the workload's
// transport: the reference a loopback campaign must reproduce bit for bit.
func (inst *instance) inProcess(ctx context.Context, wl workload, i int, seed int64, workers int, tel *telemetry.Collector) (*campaign.StudyResult, error) {
	d := wl.campaigns[i]
	opts := d.options(seed, workers)
	if wl.loopback {
		opts = d.spec(seed).Options()
		opts.Workers = workers
	}
	opts.Hardening = inst.hardening[i]
	opts.Telemetry = tel
	return campaign.Study(ctx, inst.cfg, inst.nets[i], opts)
}
