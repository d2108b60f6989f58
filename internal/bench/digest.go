package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"fidelity/internal/campaign"
	"fidelity/internal/faultmodel"
)

// resultDigest is the canonical digest of a campaign's simulated statistics:
// the experiment count, every fault model's Masked tally, the FIT and
// FITProtected totals (as IEEE-754 bits, so a last-place difference shows),
// and the quarantine count. Anything a speed-only change may not alter is
// in it; nothing timing-dependent is.
func resultDigest(r *campaign.StudyResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "experiments %d\n", r.Experiments)
	for _, id := range faultmodel.AllIDs() {
		var p campaign.Proportion
		if m := r.Masked[id]; m != nil {
			p = *m
		}
		fmt.Fprintf(h, "masked %s %d/%d\n", id, p.Successes, p.Trials)
	}
	fmt.Fprintf(h, "fit %016x\n", math.Float64bits(r.FIT.Total))
	fmt.Fprintf(h, "fit_protected %016x\n", math.Float64bits(r.FITProtected.Total))
	fmt.Fprintf(h, "quarantined %d\n", len(r.Quarantined))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// campaignRun is the outcome of one campaign of a workload iteration.
type campaignRun struct {
	label       string
	digest      string
	experiments int
	quarantined int
	partial     bool
	err         error
}

// newCampaignRun summarizes a campaign's result (or its error).
func newCampaignRun(label string, r *campaign.StudyResult, err error) campaignRun {
	run := campaignRun{label: label, err: err}
	if err == nil {
		run.digest = resultDigest(r)
		run.experiments = r.Experiments
		run.quarantined = len(r.Quarantined)
		run.partial = r.Partial
	}
	return run
}

// failedExperiments counts the experiments of runs that cannot be trusted:
// every experiment of a campaign that errored, came back Partial, or whose
// digest differs from want (nil: no reference to compare against), plus the
// quarantined experiments of the rest. An errored campaign reports no count,
// so it is charged at least one.
func failedExperiments(runs []campaignRun, want []string) int {
	failed := 0
	for i, r := range runs {
		mismatch := want != nil && (i >= len(want) || r.digest != want[i])
		if r.err != nil || r.partial || mismatch {
			failed += max(r.experiments, 1)
			continue
		}
		failed += r.quarantined
	}
	if want != nil && len(want) != len(runs) {
		failed = max(failed, 1)
	}
	return failed
}

// digests lists the digests of runs in order.
func digests(runs []campaignRun) []string {
	out := make([]string, len(runs))
	for i, r := range runs {
		out[i] = r.digest
	}
	return out
}

// committedDigestsJSON holds the expected campaign digests of every workload at
// the default seed, in iteration order. A change that only makes the engine
// faster must leave them untouched.
//
//go:embed digests.json
var committedDigestsJSON []byte

type committedFile struct {
	Seed      int64               `json:"seed"`
	Workloads map[string][]string `json:"workloads"`
}

// committedFor returns the committed digests of workload at seed, or nil
// when seed is not the committed one.
func committedFor(workload string, seed int64) ([]string, error) {
	var f committedFile
	if err := json.Unmarshal(committedDigestsJSON, &f); err != nil {
		return nil, fmt.Errorf("bench: digests.json: %w", err)
	}
	if seed != f.Seed {
		return nil, nil
	}
	want, ok := f.Workloads[workload]
	if !ok {
		return nil, fmt.Errorf("bench: digests.json has no entry for %s", workload)
	}
	return want, nil
}
