package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/harden"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
	"fidelity/internal/telemetry"
)

const (
	// layerReps is how many times each micro-measured call repeats; the
	// median is reported.
	layerReps = 7
	// minTailSamples is the sample count a p99 needs: 10 beyond it.
	minTailSamples = 1000
	// distribBudget caps the loopback campaigns the traced run makes to
	// collect minTailSamples lease and report round trips.
	distribBudget = 60 * time.Second
	// clampProbeRuns is the injections per network run on a clamped copy to
	// count saturations, for workloads whose campaigns install no clamps.
	clampProbeRuns = 100
	// roundBufLen is the length of the buffer the numerics kernels round.
	roundBufLen = 1 << 14
)

// distribProbe is the small fixed-count campaign the traced run serves over
// loopback on the in-process workloads, so the distrib layer is measured on
// every workload; only fidelityd-loopback's end-to-end metrics depend on it.
var distribProbe = campaignDef{net: "mobilenet", prec: numerics.INT8, samples: 64}

// layerRun carries the traced run's shared state.
type layerRun struct {
	ctx     context.Context
	c       config
	tm      *timedRun
	workers int
	out     io.Writer
	tr      *tracer
	root    int
	v       map[string]float64
}

// traced measures every per-layer metric with spans around each call into a
// layer, then writes the spans out. exact reports whether the sequential
// RunShard + AssembleResult digests (and the loopback re-runs') equal the
// timed run's.
func traced(ctx context.Context, c config, tm *timedRun, workers int, out io.Writer) (map[string]float64, bool, error) {
	lr := &layerRun{ctx: ctx, c: c, tm: tm, workers: workers, out: out, tr: newTracer(c.workload.name), v: map[string]float64{}}
	lr.root = lr.tr.begin(0, "bench", "traced run")
	// campaignLayer precedes hardenLayer, which reuses its Snapshot.Harden.
	steps := []func() error{lr.setupLayers, lr.numericsLayer, lr.campaignLayer, lr.hardenLayer, lr.injectLayer}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, false, err
		}
	}
	exact, err := lr.shardLayer()
	if err != nil {
		return nil, false, err
	}
	distribExact, err := lr.distribLayer()
	if err != nil {
		return nil, false, err
	}
	lr.tr.end(lr.root)

	for layer, ms := range lr.tr.selfMS() {
		if layer != "bench" {
			lr.v[layer+".self_ms"] = ms
		}
	}
	path, err := lr.tr.write(c.spans, c.seed)
	if err != nil {
		return nil, false, err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	fmt.Fprintf(out, "sequential RunShard + AssembleResult digests %s the timed run's\n", checkWord(exact, "equal", "DIFFER FROM"))
	return lr.v, exact && distribExact, nil
}

// repeat times fn layerReps times in spans and returns the median in ms.
func (lr *layerRun) repeat(layer, name string, fn func() error) (float64, error) {
	ds := make([]float64, 0, layerReps)
	for r := 0; r < layerReps; r++ {
		d, err := lr.tr.timed(lr.root, layer, name, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d)/1e6)
	}
	return median(ds), nil
}

// setupLayers times model.Build per network and faultmodel.Derive.
func (lr *layerRun) setupLayers() error {
	var build float64
	for _, d := range lr.c.workload.campaigns {
		ms, err := lr.repeat("model", "model.Build "+d.String(), func() error {
			_, err := model.Build(d.net, d.prec, weightSeed)
			return err
		})
		if err != nil {
			return err
		}
		build += ms
	}
	derive, err := lr.repeat("faultmodel", "faultmodel.Derive", func() error {
		_, err := faultmodel.Derive(lr.tm.inst.cfg)
		return err
	})
	lr.v["model.build_ms"] = build
	lr.v["faultmodel.derive_ms"] = derive
	return err
}

// roundSink keeps the rounding loops' results live.
var roundSink float32

// numericsLayer times FP16 RoundHalf and the INT8 codec's Round per value
// over a fixed buffer drawn from the run seed.
func (lr *layerRun) numericsLayer() error {
	rng := rand.New(faultmodel.NewStreamSource(lr.c.seed))
	buf := make([]float32, roundBufLen)
	for i := range buf {
		buf[i] = float32(rng.NormFloat64() * 4)
	}
	i8 := numerics.MustCodec(numerics.INT8, 8)
	for _, k := range []struct {
		metric, name string
		round        func(float32) float32
	}{
		{"numerics.roundhalf_ns", "numerics.RoundHalf", numerics.RoundHalf},
		{"numerics.round_int8_ns", "numerics.Codec.Round INT8", i8.Round},
	} {
		ms, err := lr.repeat("numerics", k.name, func() error {
			var s float32
			for _, f := range buf {
				s += k.round(f)
			}
			roundSink = s
			return nil
		})
		if err != nil {
			return err
		}
		lr.v[k.metric] = ms * 1e6 / roundBufLen
	}
	return nil
}

// campaignLayer runs every campaign of the workload once more in process
// with telemetry, for the engine's phase times, batching, kernel tiles and
// planner rounds; their throughput against the untraced run's is the
// tracing overhead (the loopback workload's comes from distribLayer).
func (lr *layerRun) campaignLayer() error {
	wl := lr.c.workload
	var wall time.Duration
	var exps, groups, batched, tiles, rounds, adaptive int64
	var clamps, saturated int64
	phases := map[string]float64{}
	for j := 0; j < wl.panel; j++ {
		runtime.GC() // as before every timed iteration
		for i, d := range wl.campaigns {
			tel := telemetry.New()
			seed := wl.campaignSeed(lr.c.seed, j)
			id := lr.tr.begin(lr.root, "campaign", fmt.Sprintf("campaign.Study %s seed %d", d, seed))
			res, err := lr.tm.inst.inProcess(lr.ctx, wl, i, seed, lr.workers, tel)
			wall += lr.tr.end(id)
			if err != nil {
				return err
			}
			snap := tel.Snapshot()
			exps += int64(res.Experiments)
			for _, p := range snap.Phases {
				phases[p.Name] += p.Seconds
			}
			if snap.Batch != nil {
				groups += snap.Batch.SiteGroups
				batched += snap.Batch.Experiments
			}
			if snap.Kernels != nil {
				tiles += snap.Kernels.Tiles
			}
			if snap.Strata != nil {
				rounds += int64(snap.Strata.Rounds)
				adaptive++
			}
			if snap.Harden != nil {
				clamps += snap.Harden.ClampApplications
				saturated += snap.Harden.SaturatedValues
			}
		}
	}
	runs := float64(wl.panel * len(wl.campaigns))
	lr.v["campaign.trace_s"] = phases["trace"] / runs
	lr.v["campaign.inject_s"] = phases["inject"] / runs
	lr.v["campaign.fit_s"] = phases["fit"] / runs
	lr.v["campaign.batch_group_size"] = ratio(float64(batched), float64(groups))
	lr.v["campaign.tiles_per_exp"] = ratio(float64(tiles), float64(exps))
	lr.v["campaign.rounds"] = ratio(float64(rounds), float64(adaptive))
	if clamps > 0 {
		lr.v["harden.saturated_per_clamp"] = float64(saturated) / float64(clamps)
	}
	if !wl.loopback {
		lr.setOverhead(float64(exps) / wall.Seconds())
	}
	return nil
}

// setOverhead records how much slower the traced campaigns ran than the
// untraced ones.
func (lr *layerRun) setOverhead(tracedRate float64) {
	lr.v["trace.overhead_frac"] = lr.tm.endToEnd()["exps_per_s"]/tracedRate - 1
}

// hardenLayer times harden.Profile, golden Network.Forward with and without
// clamps installed, and — when the workload's campaigns install none —
// counts saturations over injections into clamped copies of its networks.
func (lr *layerRun) hardenLayer() error {
	// A workload whose campaigns install clamps already has the ratio from
	// Snapshot.Harden (campaignLayer); the others probe clamped copies.
	_, fromCampaign := lr.v["harden.saturated_per_clamp"]
	var profile, plain, clamped float64
	var applications, saturated int64
	for _, d := range lr.c.workload.campaigns {
		w, err := model.Build(d.net, d.prec, weightSeed)
		if err != nil {
			return err
		}
		ms, err := lr.repeat("harden", "harden.Profile "+d.String(), func() error {
			_, err := harden.Profile(w, inputs)
			return err
		})
		if err != nil {
			return err
		}
		profile += ms
		hw, err := model.Build(d.net, d.prec, weightSeed)
		if err != nil {
			return err
		}
		if _, err := installClamps(lr.tm.inst.cfg, hw); err != nil {
			return err
		}
		x, err := dataset.Sample(w.Dataset, 0)
		if err != nil {
			return err
		}
		msPlain, err := lr.repeat("nn", "nn.Network.Forward "+d.String(), func() error { w.Net.Forward(x); return nil })
		if err != nil {
			return err
		}
		msClamped, err := lr.repeat("harden", "clamped nn.Network.Forward "+d.String(), func() error { hw.Net.Forward(x); return nil })
		if err != nil {
			return err
		}
		plain += msPlain
		clamped += msClamped

		if fromCampaign {
			continue
		}
		models, err := faultmodel.Derive(lr.tm.inst.cfg)
		if err != nil {
			return err
		}
		sampler, err := faultmodel.NewSampler(models, lr.c.seed)
		if err != nil {
			return err
		}
		inj := inject.New(hw, sampler)
		if err := inj.Prepare(x); err != nil {
			return err
		}
		ids := injectedIDs()
		id := lr.tr.begin(lr.root, "harden", "clamped inject.Run "+d.String())
		for k := 0; k < clampProbeRuns; k++ {
			r, err := inj.Run(lr.ctx, ids[k%len(ids)], tolerance)
			if err != nil {
				lr.tr.end(id)
				return err
			}
			if r.Harden != nil {
				applications += r.Harden.ClampApplications
				saturated += r.Harden.Saturated
			}
		}
		lr.tr.end(id)
	}
	lr.v["harden.profile_ms"] = profile
	lr.v["nn.forward_ms"] = plain
	lr.v["harden.clamp_overhead_frac"] = clamped/plain - 1
	if !fromCampaign {
		lr.v["harden.saturated_per_clamp"] = ratio(float64(saturated), float64(applications))
	}
	return nil
}

// injectedIDs are the fault models whose experiments run a forward pass:
// every model but global control, which classifies without one.
func injectedIDs() []faultmodel.ID {
	var ids []faultmodel.ID
	for _, id := range faultmodel.AllIDs() {
		if id != faultmodel.GlobalControl {
			ids = append(ids, id)
		}
	}
	return ids
}

// injectLayer times inject.TraceGolden per input and at least
// minTailSamples single inject.Run experiments over the workload's campaign
// networks (clamped where the workload hardens), cycling through the
// forward-pass fault models and both inputs.
func (lr *layerRun) injectLayer() error {
	inst := lr.tm.inst
	models, err := faultmodel.Derive(inst.cfg)
	if err != nil {
		return err
	}
	ids := injectedIDs()
	perNet := (minTailSamples + len(inst.nets) - 1) / len(inst.nets)
	var golden float64
	var runUS []float64
	siteUS := map[string]float64{}
	var totalUS float64
	var masked, replayed int
	var skipped, recomputed, converged, swept, macs float64
	var mallocs uint64
	for _, w := range inst.nets {
		goldens := make([]*inject.Golden, inputs)
		for in := range goldens {
			x, err := dataset.Sample(w.Dataset, in)
			if err != nil {
				return err
			}
			ms, err := lr.repeat("inject", "inject.TraceGolden "+w.Net.Name(), func() error {
				g, err := inject.TraceGolden(w, x, true)
				goldens[in] = g
				return err
			})
			if err != nil {
				return err
			}
			golden += ms
		}
		sampler, err := faultmodel.NewSampler(models, lr.c.seed)
		if err != nil {
			return err
		}
		inj := inject.New(w, sampler)
		for in, g := range goldens {
			if err := inj.PrepareGolden(g); err != nil {
				return err
			}
			n := perNet / inputs
			if in < perNet%inputs {
				n++
			}
			before := memStats()
			for k := 0; k < n; k++ {
				span := lr.tr.begin(lr.root, "inject", "inject.Run")
				r, err := inj.Run(lr.ctx, ids[k%len(ids)], tolerance)
				us := float64(lr.tr.end(span)) / 1e3
				if err != nil {
					return err
				}
				runUS = append(runUS, us)
				siteUS[r.Site] += us
				totalUS += us
				if r.Outcome == inject.Masked {
					masked++
				}
				if rc := r.Replay; rc != nil {
					replayed++
					skipped += float64(rc.Skipped)
					recomputed += float64(rc.Recomputed)
					converged += float64(rc.Converged)
					swept += float64(rc.RegionSwept)
					macs += rc.MACsAvoided
				}
			}
			after := memStats()
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	p50, err := percentile(runUS, 0.50)
	if err != nil {
		return err
	}
	p99, err := percentile(runUS, 0.99)
	if err != nil {
		return err
	}
	var top float64
	for _, us := range siteUS {
		top = max(top, us)
	}
	n := float64(len(runUS))
	lr.v["inject.golden_trace_ms"] = golden
	lr.v["inject.run_p50_us"] = p50
	lr.v["inject.run_p99_us"] = p99
	lr.v["inject.run_samples"] = n
	lr.v["inject.top_site_share"] = top / totalUS
	lr.v["inject.skipped_per_exp"] = ratio(skipped, float64(replayed))
	lr.v["inject.recomputed_per_exp"] = ratio(recomputed, float64(replayed))
	lr.v["inject.region_swept_frac"] = ratio(swept, recomputed)
	lr.v["inject.converged_frac"] = ratio(converged, recomputed)
	lr.v["inject.macs_avoided_per_exp"] = ratio(macs, float64(replayed))
	lr.v["inject.allocs_per_run"] = float64(mallocs) / n
	lr.v["inject.masked_frac"] = float64(masked) / n
	return nil
}

// shardLayer re-runs the first panel seed's campaigns one shard at a time
// through campaign.RunShard and assembles them with campaign.AssembleResult;
// the digests must equal the timed (Workers = nproc) run's, which re-proves
// worker-count invariance on every seed.
func (lr *layerRun) shardLayer() (bool, error) {
	wl := lr.c.workload
	var shardS []float64
	var assemble float64
	exact := true
	for i, d := range wl.campaigns {
		seed := wl.campaignSeed(lr.c.seed, 0)
		opts := d.options(seed, 1)
		if wl.loopback {
			opts = d.spec(seed).Options()
		}
		opts.Hardening = lr.tm.inst.hardening[i]
		res, secs, ms, err := runShardsSequential(lr.ctx, lr.tr, lr.root, lr.tm.inst.cfg, lr.tm.inst.nets[i], opts)
		if err != nil {
			return false, err
		}
		shardS = append(shardS, secs...)
		assemble += ms
		exact = exact && resultDigest(res) == lr.tm.ref[i]
	}
	p50, err := percentile(shardS, 0.50)
	if err != nil {
		return false, err
	}
	lr.v["campaign.shard_s_p50"] = p50
	var longest, total float64
	for _, s := range shardS {
		longest = max(longest, s)
		total += s
	}
	lr.v["campaign.shard_s_max"] = longest
	campaignS := lr.tm.endToEnd()["campaign_s"]
	lr.v["campaign.parallel_eff"] = total / (float64(lr.workers) * campaignS)
	lr.v["fit.assemble_ms"] = assemble
	return exact, nil
}

// runShardsSequential executes every shard of one campaign on the calling
// goroutine through campaign.RunShard, planning adaptive rounds at each
// barrier with the engine's exported planner exactly as the in-process
// barrier loop does, and assembles the result with campaign.AssembleResult.
// It returns the result, each RunShard call's seconds, and the assembly's
// milliseconds.
func runShardsSequential(ctx context.Context, tr *tracer, parent int, cfg *accel.Config, w *model.Workload, opts campaign.StudyOptions) (*campaign.StudyResult, []float64, float64, error) {
	shards := opts.Shards
	if shards <= 0 {
		shards = campaign.DefaultShards
	}
	var strata []campaign.Stratum
	if opts.TargetCI > 0 {
		var err error
		if strata, err = campaign.CampaignStrata(w, opts); err != nil {
			return nil, nil, 0, err
		}
	}
	cps := make([]campaign.ShardCheckpoint, shards)
	var history [][]int
	var secs []float64
	for pass := 0; ; pass++ {
		for i := range cps {
			var resume *campaign.ShardCheckpoint
			if pass > 0 {
				if cps[i].Done {
					continue
				}
				resume = &cps[i]
			}
			id := tr.begin(parent, "campaign", fmt.Sprintf("campaign.RunShard %s shard %d", w.Net.Name(), i))
			cp, err := campaign.RunShard(ctx, cfg, w, opts, campaign.ShardRun{Index: i, Resume: resume})
			secs = append(secs, tr.end(id).Seconds())
			if err != nil {
				return nil, nil, 0, err
			}
			cps[i] = cp
		}
		if opts.TargetCI <= 0 {
			break
		}
		next, converged := campaign.PlanRound(strata, history, campaign.StrataTallies(strata, cps), opts.TargetCI)
		if converged {
			for i := range cps {
				if !cps[i].Done {
					campaign.FinalizeAdaptiveShard(&cps[i], opts.Inputs)
				}
			}
			break
		}
		history = append(history, next)
		for i := range cps {
			if !cps[i].Done {
				cps[i].Adaptive.History = campaign.CloneHistory(history)
			}
		}
	}
	id := tr.begin(parent, "fit", "campaign.AssembleResult "+w.Net.Name())
	res, err := campaign.AssembleResult(cfg, w, opts, cps)
	ms := float64(tr.end(id)) / 1e6
	return res, secs, ms, err
}

// distribLayer serves loopback campaigns — the workload's own on
// fidelityd-loopback, distribProbe elsewhere — through workers whose HTTP
// transport times every lease and report, until both have minTailSamples
// round trips. Each campaign's digest must equal its reference: the timed
// run's for the workload's own campaigns, the first probe's for the probe.
func (lr *layerRun) distribLayer() (bool, error) {
	wl := lr.c.workload
	defs, seedOf := []campaignDef{distribProbe}, func(int) int64 { return lr.c.seed }
	if wl.loopback {
		defs = wl.campaigns
		seedOf = func(j int) int64 { return wl.campaignSeed(lr.c.seed, j%wl.panel) }
	}
	stats := &wireStats{tr: lr.tr}
	ref := map[int64][]string{}
	if wl.loopback {
		for j := 0; j < wl.panel; j++ {
			ref[seedOf(j)] = lr.tm.ref[j*len(defs) : (j+1)*len(defs)]
		}
	}
	var exps, campaigns int
	var wall time.Duration
	exact := true
	deadline := time.Now().Add(distribBudget)
	for j := 0; stats.samples() < minTailSamples; j++ {
		if time.Now().After(deadline) {
			return false, fmt.Errorf("distrib: %d round trips after %v, need %d", stats.samples(), distribBudget, minTailSamples)
		}
		seed := seedOf(j)
		var got []string
		for _, d := range defs {
			lb, err := startLoopback(d.spec(seed))
			if err != nil {
				return false, err
			}
			id := lr.tr.begin(lr.root, "distrib", fmt.Sprintf("loopback campaign %s seed %d", d, seed))
			stats.parent = id
			res, dur, err := lb.run(lr.ctx, lr.workers, stats.wrap)
			lr.tr.end(id)
			if cerr := lb.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return false, err
			}
			wall += dur
			exps += res.Experiments
			campaigns++
			got = append(got, resultDigest(res))
		}
		if ref[seed] == nil {
			ref[seed] = got
		}
		exact = exact && slices.Equal(got, ref[seed])
	}
	lease50, err := percentile(stats.leaseMS, 0.50)
	if err != nil {
		return false, err
	}
	lease99, err := percentile(stats.leaseMS, 0.99)
	if err != nil {
		return false, err
	}
	report50, err := percentile(stats.reportMS, 0.50)
	if err != nil {
		return false, err
	}
	report99, err := percentile(stats.reportMS, 0.99)
	if err != nil {
		return false, err
	}
	shards := float64(campaigns * campaign.DefaultShards)
	lr.v["distrib.lease_p50_ms"] = lease50
	lr.v["distrib.lease_p99_ms"] = lease99
	lr.v["distrib.report_p50_ms"] = report50
	lr.v["distrib.report_p99_ms"] = report99
	lr.v["distrib.lease_samples"] = float64(len(stats.leaseMS))
	lr.v["distrib.requests_per_shard"] = float64(stats.requests) / shards
	lr.v["distrib.report_kb_per_exp"] = float64(stats.reportBytes) / 1024 / float64(exps)
	lr.v["distrib.empty_lease_frac"] = ratio(float64(stats.emptyLeases), float64(len(stats.leaseMS)))
	lr.v["distrib.retry_frac"] = ratio(float64(stats.retries), float64(stats.requests))
	if wl.loopback {
		lr.setOverhead(float64(exps) / wall.Seconds())
	}
	fmt.Fprintf(lr.out, "%d loopback campaigns: digests %s their reference\n", campaigns, checkWord(exact, "equal", "DIFFER FROM"))
	return exact, nil
}
