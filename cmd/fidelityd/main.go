// Command fidelityd is the distributed campaign daemon: the same resilience
// study `study` runs in one process, fanned out over machines.
//
// Usage:
//
//	fidelityd serve -addr :9090 -net mobilenet [-samples N] [-state F] ...
//	fidelityd work  -coordinator http://host:9090 [-id NAME] ...
//
// `serve` runs the coordinator: it partitions the campaign into the engine's
// deterministic logical shards, hands them to workers as time-bounded leases
// over a JSON/HTTP API, collects streamed shard checkpoints, re-leases
// shards whose heartbeats lapse, and assembles the final StudyResult — byte
// identical to an in-process run with the same -seed and -shards, whatever
// the worker count or failure pattern. With -state the lease table and
// collected checkpoints persist through the campaign engine's fsync'd
// checkpoint machinery, so a restarted coordinator resumes the campaign
// instead of restarting it.
//
// `work` runs a worker: it polls the coordinator for leases with
// retry/backoff (surviving coordinator restarts), executes shards via the
// campaign engine, and streams checkpoints and telemetry back as heartbeats.
//
// Exit codes follow `study`: 0 complete, 1 error, 2 usage, 3 partial result
// (a shard exhausted its failure budget), 130 interrupted.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fidelity/internal/campaign"
	"fidelity/internal/distrib"
	"fidelity/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch cmd := os.Args[1]; cmd {
	case "serve":
		err = serve(ctx, os.Args[2:])
	case "work":
		err = work(ctx, os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "fidelityd: interrupted")
		os.Exit(130)
	case errors.Is(err, errPartial):
		fmt.Fprintln(os.Stderr, "fidelityd:", err)
		os.Exit(3)
	default:
		fmt.Fprintln(os.Stderr, "fidelityd:", err)
		os.Exit(1)
	}
}

// errPartial marks a campaign that completed degraded: every shard is
// terminal but at least one exhausted its failure budget or failed its
// audit re-run.
var errPartial = errors.New("partial result (a shard exhausted its failure budget or failed its audit)")

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fidelityd <serve|work> [flags]

  serve  run the campaign coordinator (lease shards to workers over HTTP)
  work   run a worker against a coordinator

run "fidelityd serve -h" or "fidelityd work -h" for flags`)
}

// usageError prints the message and the flag set's usage, then exits 2 — the
// same contract as an unknown subcommand.
func usageError(fs *flag.FlagSet, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fidelityd: "+format+"\n", args...)
	fs.Usage()
	os.Exit(2)
}

func serve(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":9090", "listen address for the coordinator API")
	netName := fs.String("net", "mobilenet", "workload model name")
	precision := fs.String("precision", "fp16", "numeric precision (fp16, int16, int8)")
	tolerance := fs.Float64("tolerance", 0.1, "application output-error tolerance")
	samples := fs.Int("samples", 400, "injection experiments per fault model per input")
	targetCI := fs.Float64("target-ci", 0, "adaptive stratified sampling: the coordinator plans rounds until every stratum's 95% Wilson CI half-width reaches this target (mutually exclusive with -samples; in (0, 0.5])")
	inputs := fs.Int("inputs", 4, "distinct dataset inputs")
	seed := fs.Int64("seed", 1, "sampling seed (campaign identity)")
	shards := fs.Int("shards", 0, "deterministic sampling shards (0 = default; campaign identity like -seed)")
	perLayer := fs.Bool("perlayer", false, "estimate Prob_SWmask per layer (multiplies experiment count)")
	expTimeout := fs.Duration("experiment-timeout", 0, "per-experiment watchdog deadline on workers (0 = off)")
	failBudget := fs.Int("failure-budget", 0, "max quarantined experiments per shard before it degrades (0 = default)")
	leaseTTL := fs.Duration("lease-ttl", distrib.DefaultLeaseTTL, "per-lease heartbeat budget; lapsed leases are re-issued")
	auditFraction := fs.Float64("audit-fraction", 0, "fraction of completed shards re-run on a second worker and byte-compared (0 = off, 1 = all; mismatch flags the campaign partial)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT, refuse new leases and wait up to this long for in-flight reports before persisting and exiting (0 = exit immediately)")
	state := fs.String("state", "", "persist lease table + checkpoints here; restart resumes the campaign (empty = in-memory)")
	result := fs.String("result", "", "write the final StudyResult JSON here (empty = stdout)")
	progress := fs.Duration("progress", 0, "emit merged JSONL telemetry snapshots to stderr at this interval (0 = off)")
	manifest := fs.String("manifest", "", "write a machine-readable run manifest to this file (empty disables)")
	fs.Parse(args)
	if *targetCI != 0 {
		samplesSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "samples" {
				samplesSet = true
			}
		})
		if samplesSet {
			usageError(fs, "-samples and -target-ci are mutually exclusive (the adaptive planner sizes each stratum itself)")
		}
		if !(*targetCI > 0 && *targetCI <= 0.5) { // negated so NaN fails too
			usageError(fs, "-target-ci must be in (0, 0.5] (got %g)", *targetCI)
		}
		*samples = 0
	} else if *samples <= 0 {
		usageError(fs, "-samples must be positive (got %d)", *samples)
	}
	if *inputs <= 0 {
		usageError(fs, "-inputs must be positive (got %d)", *inputs)
	}
	if *shards < 0 {
		usageError(fs, "-shards must be non-negative (got %d)", *shards)
	}
	if *leaseTTL <= 0 {
		usageError(fs, "-lease-ttl must be positive (got %v)", *leaseTTL)
	}
	if *auditFraction < 0 || *auditFraction > 1 {
		usageError(fs, "-audit-fraction must be in [0,1] (got %g)", *auditFraction)
	}
	if *drainTimeout < 0 {
		usageError(fs, "-drain-timeout must be non-negative (got %v)", *drainTimeout)
	}

	tel := telemetry.New()
	tel.SetSource("coordinator")
	spec := distrib.CampaignSpec{
		Workload:          *netName,
		Precision:         *precision,
		WorkloadSeed:      42,
		Tolerance:         *tolerance,
		Samples:           *samples,
		TargetCI:          *targetCI,
		Inputs:            *inputs,
		Seed:              *seed,
		Shards:            *shards,
		PerLayer:          *perLayer,
		ExperimentTimeout: *expTimeout,
		FailureBudget:     *failBudget,
	}
	c, err := distrib.NewCoordinator(distrib.CoordinatorOptions{
		Spec:          spec,
		LeaseTTL:      *leaseTTL,
		StatePath:     *state,
		AuditFraction: *auditFraction,
		Telemetry:     tel,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Bounded timeouts so one stalled client cannot wedge the coordinator;
	// request bodies are capped by the handler's integrity layer.
	srv := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()
	fmt.Fprintf(os.Stderr, "fidelityd: serving campaign %s/%s (%d shards) on %s\n",
		spec.Workload, spec.Precision, c.Spec().Shards, ln.Addr())

	stopProgress := emitProgress(*progress, func() telemetry.Snapshot { return c.Status().Telemetry })
	start := time.Now()
	res, resErr := c.Result(ctx)
	if resErr != nil && ctx.Err() != nil {
		// Graceful drain: stop handing out leases, give in-flight reports a
		// bounded window to land, then persist whatever was accepted. Workers
		// polling during the drain are told Draining and keep polling, so a
		// restarted coordinator picks them straight back up.
		c.StartDrain()
		fmt.Fprintf(os.Stderr, "fidelityd: draining: refusing new leases, waiting up to %v for in-flight reports\n", *drainTimeout)
		waitDrain(c, *drainTimeout)
		if r, done, ferr := c.Finished(); done && ferr == nil {
			// The last reports landed during the drain: finish normally.
			res, resErr = r, nil
		}
	}
	stopProgress()
	writeManifest(*manifest, "serve", start, c.Status(), res)
	if resErr != nil {
		select {
		case err := <-serveErr:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
		default:
		}
		if ctx.Err() != nil && *state != "" {
			if perr := c.PersistNow(); perr != nil {
				fmt.Fprintln(os.Stderr, "fidelityd:", perr)
			}
			fmt.Fprintf(os.Stderr, "fidelityd: state saved to %s; restart with the same -state to resume\n", *state)
		}
		return resErr
	}
	if err := emitResult(*result, res); err != nil {
		return err
	}
	if res.Partial {
		// Degraded campaign: keep the state file — re-serving it after the
		// failure is fixed completes the study instead of repeating it.
		return errPartial
	}
	// The campaign completed: a leftover state file would only replay the
	// finished run, so clean it up (same contract as study's checkpoints).
	if *state != "" {
		if _, statErr := os.Stat(*state); statErr == nil {
			os.Remove(*state)
		}
	}
	return nil
}

// waitDrain blocks until the coordinator has no live leases (every in-flight
// shard reported or lapsed), the campaign finishes, the timeout lapses, or a
// second interrupt demands an immediate exit.
func waitDrain(c *distrib.Coordinator, timeout time.Duration) {
	if timeout <= 0 {
		return
	}
	// signal.NotifyContext consumed the first signal; register a fresh
	// channel so a second one can cut the drain short.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	deadline := time.After(timeout)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		if c.Idle() {
			return
		}
		if _, done, _ := c.Finished(); done {
			return
		}
		select {
		case <-tick.C:
		case <-deadline:
			fmt.Fprintln(os.Stderr, "fidelityd: drain timeout; exiting with leases still in flight")
			return
		case <-sig:
			fmt.Fprintln(os.Stderr, "fidelityd: second interrupt; skipping drain")
			return
		}
	}
}

// emitResult writes the StudyResult durably to path, or to stdout when
// path is empty.
func emitResult(path string, res *campaign.StudyResult) error {
	if path == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(res)
	}
	if err := campaign.AtomicWriteJSON(path, res); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fidelityd: result written to %s (FIT=%.2f, %d experiments)\n",
		path, res.FIT.Total, res.Experiments)
	return nil
}

func work(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL, e.g. http://host:9090 (required)")
	id := fs.String("id", "", "worker name for leases and telemetry attribution (default host-pid)")
	poll := fs.Duration("poll", distrib.DefaultPoll, "lease poll cadence and retry backoff base")
	publishEvery := fs.Int("publish-every", 16, "experiments between streamed shard checkpoints (bounds re-lease loss)")
	progress := fs.Duration("progress", 0, "emit JSONL telemetry snapshots to stderr at this interval (0 = off)")
	fs.Parse(args)
	if *coordinator == "" {
		usageError(fs, "-coordinator is required")
	}
	if *poll <= 0 {
		usageError(fs, "-poll must be positive (got %v)", *poll)
	}
	if *publishEvery < 0 {
		usageError(fs, "-publish-every must be non-negative (got %d)", *publishEvery)
	}
	if *id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	tel := telemetry.New()
	stopProgress := emitProgress(*progress, tel.Snapshot)
	defer stopProgress()
	fmt.Fprintf(os.Stderr, "fidelityd: worker %s polling %s\n", *id, *coordinator)
	return distrib.Work(ctx, distrib.WorkerOptions{
		BaseURL:      *coordinator,
		ID:           *id,
		Poll:         *poll,
		Telemetry:    tel,
		PublishEvery: *publishEvery,
	})
}

// emitProgress starts a periodic JSONL telemetry emitter on stderr and
// returns its stop function.
func emitProgress(interval time.Duration, snap func() telemetry.Snapshot) func() {
	if interval <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		enc := json.NewEncoder(os.Stderr)
		for {
			select {
			case <-t.C:
				_ = enc.Encode(snap())
			case <-stop:
				return
			}
		}
	}()
	return func() { close(stop); <-done }
}

// daemonManifest is the serve-mode run summary: the campaign spec, the final
// lease-table status, and the merged (per-source attributed) telemetry of
// every worker that reported.
type daemonManifest struct {
	Command   string               `json:"command"`
	Mode      string               `json:"mode"`
	Args      []string             `json:"args"`
	Start     time.Time            `json:"start"`
	End       time.Time            `json:"end"`
	Spec      distrib.CampaignSpec `json:"spec"`
	Status    distrib.StatusReply  `json:"status"`
	FIT       float64              `json:"fit,omitempty"`
	Partial   bool                 `json:"partial,omitempty"`
	Completed bool                 `json:"completed"`
}

func writeManifest(path, mode string, start time.Time, st distrib.StatusReply, res *campaign.StudyResult) {
	if path == "" {
		return
	}
	m := daemonManifest{
		Command: "fidelityd", Mode: mode, Args: os.Args[2:],
		Start: start, End: time.Now(),
		Spec: st.Spec, Status: st, Completed: st.Completed,
	}
	if res != nil {
		m.FIT = res.FIT.Total
		m.Partial = res.Partial
	}
	if err := campaign.AtomicWriteJSON(path, &m); err != nil {
		fmt.Fprintln(os.Stderr, "fidelityd: manifest:", err)
	}
}
