package campaign_test

import (
	"encoding/json"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/distrib"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
)

// maxFuzzShards bounds the checkpoint the fuzzer builds: NewCheckpoint holds
// one state per shard, and Validate puts no ceiling on the shard count.
const maxFuzzShards = 64

// FuzzStudyOptionsIdentity checks StudyOptions.Validate against the campaign
// identity it guards: whenever it accepts a set of options, their checkpoint
// survives a JSON round trip and still matches them, and the equivalent
// distributed CampaignSpec validates and survives a JSON round trip too.
// Options the validator lets through but the identity cannot carry (a NaN
// tolerance never equals itself, so its checkpoint never matches) fail here.
func FuzzStudyOptionsIdentity(f *testing.F) {
	const net = "rnn"
	cfg := accel.NVDLASmall()
	w, err := model.Build(net, numerics.FP16, model.WeightSeed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(400, 0.0, 4, 0, 0.1, int64(1), false)
	f.Add(0, 0.05, 2, 8, 0.2, int64(-7), true)
	f.Fuzz(func(t *testing.T, samples int, targetCI float64, inputs, shards int, tolerance float64, seed int64, perLayer bool) {
		opts := campaign.StudyOptions{
			Samples: samples, TargetCI: targetCI, Inputs: inputs, Shards: shards,
			Tolerance: tolerance, Seed: seed, PerLayer: perLayer,
		}
		if opts.Validate() != nil {
			return
		}
		if shards > maxFuzzShards {
			t.Skip("shard count beyond the fuzzer's checkpoint bound")
		}
		n := shards
		if n == 0 {
			n = campaign.DefaultShards
		}
		states := make([]campaign.ShardCheckpoint, n)
		for i := range states {
			states[i] = campaign.NewShardCheckpoint(i)
		}
		blob, err := json.Marshal(campaign.NewCheckpoint(cfg, w, opts, states))
		if err != nil {
			t.Fatalf("checkpoint of accepted options %+v does not encode: %v", opts, err)
		}
		var cp campaign.Checkpoint
		if err := json.Unmarshal(blob, &cp); err != nil {
			t.Fatalf("checkpoint of accepted options %+v does not decode: %v", opts, err)
		}
		if !cp.Matches(cfg, w, opts, n) {
			t.Fatalf("decoded checkpoint no longer matches accepted options %+v", opts)
		}

		spec := distrib.CampaignSpec{
			Workload: net, Precision: numerics.FP16.String(), WorkloadSeed: model.WeightSeed,
			Tolerance: tolerance, Samples: samples, TargetCI: targetCI, Inputs: inputs,
			Seed: seed, Shards: shards, PerLayer: perLayer,
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("spec rejects options StudyOptions.Validate accepts: %v", err)
		}
		blob, err = json.Marshal(spec)
		if err != nil {
			t.Fatalf("spec of accepted options %+v does not encode: %v", opts, err)
		}
		var back distrib.CampaignSpec
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("spec of accepted options %+v does not decode: %v", opts, err)
		}
		if back != spec {
			t.Fatalf("spec changed in a JSON round trip: %+v -> %+v", spec, back)
		}
	})
}
