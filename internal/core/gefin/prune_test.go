package gefin

import (
	"encoding/json"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/soc"
)

// pruneConfig exercises every component the pre-filter can decide (the
// caches and the DTLB) plus the register file, which is always undecided.
func pruneConfig(seed int64) Config {
	return Config{
		FaultsPerComponent: faultsN(24),
		Seed:               seed,
		Components: []fault.Component{
			fault.CompRegFile, fault.CompL1D, fault.CompL2, fault.CompDTLB,
		},
	}
}

// TestPruneResultInvariance is the pre-filter's campaign-level contract:
// the aggregated WorkloadResult is byte-identical with pruning on or off,
// at one worker or many, with or without the checkpoint ladder — the
// pre-filter, the rung batching, and the shared checkpoint images are
// purely execution optimisations.
func TestPruneResultInvariance(t *testing.T) {
	for _, workload := range []string{"crc32", "matmul"} {
		cfg := pruneConfig(2026)
		cfg.Workers = 1
		ref := runSmall(t, cfg, workload)
		refJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			for _, every := range []uint64{0, soc.DefaultCheckpointEvery} {
				pcfg := cfg
				pcfg.Workers = workers
				pcfg.CheckpointEvery = every
				pcfg.Prune = true
				res := runSmall(t, pcfg, workload)
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(refJSON) {
					equalComponentResults(t, ref, res) // pinpoint the diff
					t.Fatalf("%s workers=%d every=%d: pruned result not byte-identical to unpruned", workload, workers, every)
				}
			}
		}
	}
}

// TestPruneSummarySplit checks the predicted/simulated bookkeeping: the
// split covers the whole plan, something is actually predicted for
// cache-heavy plans, and the split never leaks into Workloads.
func TestPruneSummarySplit(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	cfg := pruneConfig(2026).withDefaults()
	cfg.Prune = true
	cfg.CheckpointEvery = soc.DefaultCheckpointEvery
	res, err := Run(cfg, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prune == nil {
		t.Fatal("pruned Run returned no PruneSummary")
	}
	s := res.Prune
	if want := PlanLen(cfg); s.Predicted+s.Simulated != want {
		t.Fatalf("split %d predicted + %d simulated != plan %d", s.Predicted, s.Simulated, want)
	}
	if s.Predicted == 0 {
		t.Fatal("pre-filter decided nothing on a cache-heavy plan")
	}
	if s.Verified != 0 || s.Mismatches != 0 {
		t.Fatalf("non-shadow run reports verification: %+v", s)
	}
	byMech := 0
	for _, n := range s.ByMechanism {
		byMech += n
	}
	if byMech != s.Predicted {
		t.Fatalf("ByMechanism sums to %d, want %d", byMech, s.Predicted)
	}
	if f := s.PredictedFraction(); f <= 0 || f >= 1 {
		t.Fatalf("predicted fraction %f out of (0,1)", f)
	}
}

// TestPruneVerifyShadowMode is the cross-validation harness: a Verify
// campaign with the pre-filter and deduplication on predicts every plan
// slot it can AND simulates it with the provenance probe armed, then
// fails the campaign on any disagreement. Zero mismatches at one worker
// and four, on both workloads, validates the liveness pre-filter against
// ground truth.
func TestPruneVerifyShadowMode(t *testing.T) {
	for _, workload := range []string{"crc32", "matmul"} {
		for _, workers := range []int{1, 4} {
			cfg := pruneConfig(2027)
			cfg.Workers = workers
			cfg.CheckpointEvery = soc.DefaultCheckpointEvery
			cfg.Prune, cfg.Dedup, cfg.Verify = true, true, true
			spec, _ := bench.ByName(workload)
			res, err := Run(cfg, []bench.Spec{spec}, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", workload, workers, err)
			}
			s := res.Prune
			if s == nil || s.Predicted == 0 {
				t.Fatalf("%s workers=%d: shadow mode predicted nothing", workload, workers)
			}
			if s.Verified != s.Predicted || s.Mismatches != 0 {
				t.Fatalf("%s workers=%d: verified %d/%d with %d mismatches",
					workload, workers, s.Verified, s.Predicted, s.Mismatches)
			}
			if want := PlanLen(cfg.withDefaults()); s.Predicted+s.Simulated+res.Dedup.Deduped != want {
				t.Fatalf("%s workers=%d: shadow split %d predicted + %d simulated + %d deduped != plan %d",
					workload, workers, s.Predicted, s.Simulated, res.Dedup.Deduped, want)
			}
		}
	}
}

// TestPruneShardInvariance extends the contract to the campaign-service
// path: shards executed by a pruned runner assemble into the same
// WorkloadResult as an unpruned in-process run, and the wire outcomes
// carry the predicted/simulated split for the coordinator.
func TestPruneShardInvariance(t *testing.T) {
	cfg := pruneConfig(2028)
	cfg.CheckpointEvery = soc.DefaultCheckpointEvery
	spec, _ := bench.ByName("crc32")
	ref := runSmall(t, cfg, "crc32")

	pcfg := cfg
	pcfg.Prune = true
	r := NewShardRunner(pcfg)
	n := PlanLen(pcfg)
	var outs []ShardOutcome
	var meta ShardMeta
	for lo := 0; lo < n; lo += 7 {
		hi := lo + 7
		if hi > n {
			hi = n
		}
		part, m, err := r.RunShard(spec, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, part...)
		meta = m
	}
	res, err := AssembleWorkload(pcfg, "crc32", meta, outs)
	if err != nil {
		t.Fatal(err)
	}
	equalComponentResults(t, ref, res)

	s := ShardPruneSummary(outs)
	if s.Predicted == 0 || s.Predicted+s.Simulated != n {
		t.Fatalf("shard split %d/%d over plan %d", s.Predicted, s.Simulated, n)
	}
	if total := MergePruneSummaries([]*PruneSummary{s, nil}); total.Predicted != s.Predicted {
		t.Fatalf("merge dropped predictions: %d vs %d", total.Predicted, s.Predicted)
	}

	// Shadow mode on the shard path: every slot simulates and the runner
	// fails the shard on any disagreement.
	vcfg := pcfg
	vcfg.Verify = true
	vr := NewShardRunner(vcfg)
	if _, _, err := vr.RunShard(spec, 0, n); err != nil {
		t.Fatalf("shard shadow mode: %v", err)
	}
}
