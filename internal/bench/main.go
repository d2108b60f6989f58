// Command bench is the campaign benchmark: it drives one workload of real
// fault-injection campaigns through the public engine API, checks that
// their results are bit-exact, and prints end-to-end metrics in absolute
// units (or, with --trace 1, per-layer metrics from a traced run). The last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it from the repository root through its build script:
//
//	bash internal/bench/run.sh --workload cnn-fp16 --seed 1 --seconds 20 --trace 0
//
// README.md in this directory lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
)

const (
	// runTimeout bounds a whole run, so a stalled campaign cannot hang it.
	runTimeout = 170 * time.Second
	// setupReps is how many times an in-process workload is set up before
	// each iteration; setup_s is the median of all of them.
	setupReps = 5
	// minTimed is the fewest timed iterations a run makes, however short
	// --seconds is.
	minTimed = 3
	// validateSamples and validateSeed fix the Sec. IV accuracy check.
	validateSamples = 60
	validateSeed    = 1
	// spansDir is where a traced run writes its spans, under the build
	// output directory of run.sh.
	spansDir = ".bench_build/spans"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run: its command line and where a traced run puts its spans.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

// run parses args, measures, and prints the result; it returns the exit
// code: 0 when a result was printed, 1 when the run could not produce one,
// 2 for a bad command line.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (cnn-fp16, seq-int8, harden-adaptive, fidelityd-loopback)")
	seed := fs.Int64("seed", 1, "campaign seed")
	seconds := fs.Float64("seconds", 20, "how long the timed iterations run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		if err != nil {
			fmt.Fprintln(stderr, err)
		}
		fs.Usage()
		return 2
	}
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	res, err := measure(ctx, config{workload: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: spansDir}, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// measure performs one run: provenance, the accuracy check, the untraced
// timed campaigns, and (traced runs) the per-layer measurements.
func measure(ctx context.Context, c config, out io.Writer) (result, error) {
	wl := c.workload
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)

	prov, err := json.Marshal(newProvenance(wl.name, c.seed))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "provenance %s\n", prov)
	accurate, err := accuracy(out)
	if err != nil {
		return result{}, err
	}

	tm, err := runTimed(ctx, wl, c.seed, c.seconds, workers, out)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: tm.attempted, Failed: tm.failed}
	var values map[string]float64
	defs := endToEndMetrics
	if c.trace {
		defs = perLayerMetrics
		var exact bool
		values, exact, err = traced(ctx, c, tm, workers, out)
		if err != nil {
			return result{}, err
		}
		if !exact {
			res.Failed = res.Attempted
		}
	} else {
		values = tm.endToEnd()
	}
	if res.Metrics, err = readings(defs, values); err != nil {
		return result{}, err
	}
	res.Correct = accurate && res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(out, "%s seed %d: %d experiments attempted, %d failed\n", wl.name, c.seed, res.Attempted, res.Failed)
	printTable(out, defs, res.Metrics)
	return res, nil
}

// accuracy prints the Sec. IV agreement of the software fault models with
// the cycle-level rtlsim reference and reports whether every checked case
// matched.
func accuracy(out io.Writer) (bool, error) {
	ws, err := campaign.TableIIIWorkloads()
	if err != nil {
		return false, err
	}
	start := time.Now()
	rep, err := campaign.Validate(accel.NVDLASmall(), ws, validateSamples, validateSeed)
	if err != nil {
		return false, err
	}
	ok := len(rep.Mismatches) == 0 && rep.DatapathExact == rep.DatapathChecked &&
		rep.SetMatch == rep.SetChecked && rep.LocalMatch == rep.LocalChecked
	fmt.Fprintf(out, "accuracy vs rtlsim (Sec. IV, %d injections, seed %d): datapath exact %d/%d, RF=1 sets %d/%d, local control %d/%d, global control masked %d/%d, mismatches %d (%.2f s)\n",
		rep.Total, validateSeed, rep.DatapathExact, rep.DatapathChecked, rep.SetMatch, rep.SetChecked,
		rep.LocalMatch, rep.LocalChecked, rep.GlobalMasked, rep.GlobalFired, len(rep.Mismatches), time.Since(start).Seconds())
	return ok, nil
}

// timedRun is the untraced measurement of a workload.
type timedRun struct {
	inst  *instance
	panel int
	// ref lists the digests every iteration must reproduce: the committed
	// ones at the committed seed, otherwise the first iteration's.
	ref     []string
	setupS  []float64
	iterS   []float64 // campaign wall seconds of each timed iteration
	peakMiB []float64 // resident memory peak of each timed iteration
	// emptyLeases lists, per timed iteration, the empty lease replies of
	// each loopback campaign.
	emptyLeases [][]int
	perIter     int // experiments of one iteration
	timedExps   int
	mallocs     uint64
	allocBytes  uint64
	attempted   int
	failed      int
}

// runTimed runs one untimed warm-up iteration, then times iterations until
// seconds have passed (at least minTimed of them), setting the workload up
// before each. Every iteration's digests are checked against the reference;
// a loopback workload is finally re-run in process, which must reproduce its
// digests exactly.
func runTimed(ctx context.Context, wl workload, seed int64, seconds float64, workers int, out io.Writer) (*timedRun, error) {
	tm := &timedRun{panel: wl.panel}
	var want []string
	if !wl.smoke {
		var err error
		if want, err = committedFor(wl.name, seed); err != nil {
			return nil, err
		}
	}

	mem := startMemSampler()
	defer mem.close()
	var deadline time.Time
	for iter := 0; ; iter++ {
		if iter == 1 {
			deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
		}
		// Setting up before every iteration makes setup_s, the median of
		// all set-ups, sample the whole run rather than one moment of a
		// host whose speed drifts. A loopback campaign's set-up is its
		// coordinator, timed per campaign, so that workload sets up once.
		if tm.inst == nil || !wl.loopback {
			if err := tm.setUp(wl); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		mem.take()
		var runs []campaignRun
		var wall time.Duration
		var mallocs, allocBytes uint64
		var empty []int
		for j := 0; j < wl.panel; j++ {
			for i := range wl.campaigns {
				r, cost, err := tm.inst.runCampaign(ctx, wl, i, wl.campaignSeed(seed, j), workers)
				if err != nil {
					return nil, err
				}
				if ctx.Err() != nil {
					return nil, fmt.Errorf("%s: %w", r.label, context.Cause(ctx))
				}
				runs = append(runs, r)
				wall += cost.wall
				mallocs += cost.mallocs
				allocBytes += cost.allocBytes
				if wl.loopback {
					tm.setupS = append(tm.setupS, cost.setup.Seconds())
					empty = append(empty, cost.emptyLeases)
				}
			}
		}
		if tm.ref == nil {
			tm.ref = want
			if tm.ref == nil {
				tm.ref = digests(runs)
			}
			for _, r := range runs {
				fmt.Fprintf(out, "digest %s %s: %s (%d experiments)\n", wl.name, r.label, r.digest, r.experiments)
			}
		}
		exps := 0
		for _, r := range runs {
			exps += r.experiments
		}
		tm.attempted += exps
		tm.failed += failedExperiments(runs, tm.ref)
		if iter == 0 {
			continue // warm-up: checked, not timed
		}
		tm.iterS = append(tm.iterS, wall.Seconds())
		tm.peakMiB = append(tm.peakMiB, float64(mem.take())/(1<<20))
		tm.emptyLeases = append(tm.emptyLeases, empty)
		tm.perIter = exps
		tm.timedExps += exps
		tm.mallocs += mallocs
		tm.allocBytes += allocBytes
		if iter >= minTimed && time.Now().After(deadline) {
			break
		}
	}
	fmt.Fprintf(out, "timed %d iterations of %d experiments, seconds %.4g; digests checked against %s\n",
		len(tm.iterS), tm.perIter, tm.iterS, checkWord(want != nil, "the committed ones", "the first iteration's"))

	if wl.loopback {
		fmt.Fprintf(out, "empty lease replies per campaign, by timed iteration: %v\n", tm.emptyLeases)
		var ref []campaignRun
		for j := 0; j < wl.panel; j++ {
			for i := range wl.campaigns {
				res, err := tm.inst.inProcess(ctx, wl, i, wl.campaignSeed(seed, j), workers, nil)
				ref = append(ref, newCampaignRun("in-process", res, err))
			}
		}
		same := slices.Equal(digests(ref), tm.ref)
		fmt.Fprintf(out, "loopback digests %s the in-process Study's\n", checkWord(same, "equal", "DIFFER FROM"))
		if !same {
			tm.failed = tm.attempted
		}
	}
	if tm.timedExps == 0 {
		return nil, errors.New("bench: the timed iterations ran no experiments")
	}
	return tm, nil
}

// setUp sets the workload up setupReps times, recording each time unless
// the workload is loopback. The campaigns all run on the first instance, as
// one long campaign's networks would: its layers' rounded-weight caches,
// filled by the warm-up, stay warm.
func (tm *timedRun) setUp(wl workload) error {
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		inst, err := setup(wl)
		if err != nil {
			return err
		}
		if !wl.loopback {
			tm.setupS = append(tm.setupS, time.Since(start).Seconds())
		}
		if tm.inst == nil {
			tm.inst = inst
		}
	}
	return nil
}

// endToEnd computes the end-to-end metrics. campaign_s and experiments are
// per panel member, so they read as one campaign set at one seed.
func (tm *timedRun) endToEnd() map[string]float64 {
	campaignS := median(tm.iterS) / float64(tm.panel)
	experiments := float64(tm.perIter) / float64(tm.panel)
	return map[string]float64{
		"exps_per_s":       experiments / campaignS,
		"campaign_s":       campaignS,
		"experiments":      experiments,
		"setup_s":          median(tm.setupS),
		"allocs_per_exp":   float64(tm.mallocs) / float64(tm.timedExps),
		"alloc_kb_per_exp": float64(tm.allocBytes) / 1024 / float64(tm.timedExps),
		"max_rss_mb":       median(tm.peakMiB),
		"exact_frac":       1 - float64(tm.failed)/float64(max(tm.attempted, 1)),
	}
}

func checkWord(ok bool, yes, no string) string {
	if ok {
		return yes
	}
	return no
}

// memStats reads the runtime's allocation counters.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
