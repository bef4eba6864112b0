package gefin

import (
	"encoding/json"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/soc"
)

// dedupConfig samples the DTLB heavily enough for the seeded plan to
// collide into shared equivalence classes (seed 5 yields multi-member
// classes on crc32 and matmul at full and -short sample sizes), plus the
// register file, which is never dedupable.
func dedupConfig(seed int64) Config {
	return Config{
		FaultsPerComponent: faultsN(200),
		Seed:               seed,
		Components:         []fault.Component{fault.CompRegFile, fault.CompDTLB},
	}
}

// TestDedupResultInvariance is the deduplicator's campaign-level
// contract: the aggregated WorkloadResult is byte-identical with dedup
// off or on, at one worker or many, with or without the checkpoint
// ladder, and composed with the ACE pre-filter — materializing a
// representative's outcome onto its class members is purely an execution
// optimisation.
func TestDedupResultInvariance(t *testing.T) {
	for _, workload := range []string{"crc32", "matmul"} {
		cfg := dedupConfig(5)
		cfg.Workers = 1
		ref := runSmall(t, cfg, workload)
		refJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range []struct {
			name    string
			workers int
			every   uint64
			prune   bool
		}{
			{"workers=1", 1, 0, false},
			{"workers=4", 4, 0, false},
			{"ladder", 4, soc.DefaultCheckpointEvery, false},
			{"pruned", 4, soc.DefaultCheckpointEvery, true},
		} {
			dcfg := cfg
			dcfg.Workers = arm.workers
			dcfg.CheckpointEvery = arm.every
			dcfg.Prune = arm.prune
			dcfg.Dedup = true
			res := runSmall(t, dcfg, workload)
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(refJSON) {
				equalComponentResults(t, ref, res) // pinpoint the diff
				t.Fatalf("%s %s: deduped result not byte-identical to plain", workload, arm.name)
			}
		}
	}
}

// TestDedupSummarySplit checks the deduped/simulated bookkeeping: the
// split covers the whole plan, the sampled plan actually collides into
// classes, and the split never leaks into Workloads.
func TestDedupSummarySplit(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	cfg := dedupConfig(5).withDefaults()
	cfg.Dedup = true
	res, err := Run(cfg, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dedup == nil {
		t.Fatal("deduped Run returned no DedupSummary")
	}
	s := res.Dedup
	if want := PlanLen(cfg); s.Deduped+s.Simulated != want {
		t.Fatalf("split %d deduped + %d simulated != plan %d", s.Deduped, s.Simulated, want)
	}
	if s.Deduped == 0 || s.Classes == 0 {
		t.Fatalf("sampled plan formed no classes: %+v", s)
	}
	if s.MaxClass < 2 {
		t.Fatalf("max class size %d < 2", s.MaxClass)
	}
	if s.Verified != 0 || s.Mismatches != 0 {
		t.Fatalf("non-shadow run reports verification: %+v", s)
	}
	if f := s.DedupedFraction(); f <= 0 || f >= 1 {
		t.Fatalf("deduped fraction %f out of (0,1)", f)
	}
}

// TestDedupVerifyShadowMode is the cross-validation harness: a Verify
// campaign with deduplication on simulates every class member AND
// materializes nothing, comparing each member's simulated verdict against
// its representative's. Zero mismatches at one worker and four, on both
// workloads, validates the equivalence-class construction against ground
// truth. (TestPruneVerifyShadowMode runs Verify with the pre-filter on as
// well, where few undecided slots are left to collide into classes.)
func TestDedupVerifyShadowMode(t *testing.T) {
	for _, workload := range []string{"crc32", "matmul"} {
		for _, workers := range []int{1, 4} {
			cfg := dedupConfig(5)
			cfg.Workers = workers
			cfg.CheckpointEvery = soc.DefaultCheckpointEvery
			cfg.Dedup, cfg.Verify = true, true
			spec, _ := bench.ByName(workload)
			res, err := Run(cfg, []bench.Spec{spec}, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", workload, workers, err)
			}
			s := res.Dedup
			if s == nil || s.Deduped == 0 {
				t.Fatalf("%s workers=%d: shadow mode formed no classes", workload, workers)
			}
			if s.Verified != s.Deduped || s.Mismatches != 0 {
				t.Fatalf("%s workers=%d: verified %d/%d with %d mismatches",
					workload, workers, s.Verified, s.Deduped, s.Mismatches)
			}
			if want := PlanLen(cfg.withDefaults()); s.Deduped+s.Simulated != want {
				t.Fatalf("%s workers=%d: shadow split %d deduped + %d simulated != plan %d",
					workload, workers, s.Deduped, s.Simulated, want)
			}
		}
	}
}

// TestDedupShardInvariance extends the contract to the campaign-service
// path: shards executed by a deduplicating runner assemble into the same
// WorkloadResult as a plain in-process run. Representatives are
// shard-local — a full-plan shard reproduces the whole partition, narrow
// shards re-simulate cross-shard members — so assembly stays bit-exact
// at any shard geometry.
func TestDedupShardInvariance(t *testing.T) {
	cfg := dedupConfig(5)
	cfg.CheckpointEvery = soc.DefaultCheckpointEvery
	spec, _ := bench.ByName("crc32")
	ref := runSmall(t, cfg, "crc32")

	dcfg := cfg
	dcfg.Dedup = true
	n := PlanLen(dcfg)
	for _, width := range []int{7, n} {
		r := NewShardRunner(dcfg)
		var outs []ShardOutcome
		var meta ShardMeta
		for lo := 0; lo < n; lo += width {
			hi := lo + width
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
		res, err := AssembleWorkload(dcfg, "crc32", meta, outs)
		if err != nil {
			t.Fatal(err)
		}
		equalComponentResults(t, ref, res)

		s := ShardDedupSummary(outs)
		if s.Deduped+s.Simulated != n {
			t.Fatalf("width %d: shard split %d/%d over plan %d", width, s.Deduped, s.Simulated, n)
		}
		if width == n {
			// One full-range shard sees every class whole, so the wire
			// outcomes carry the complete dedup split.
			if s.Deduped == 0 {
				t.Fatal("full-range shard materialized nothing")
			}
			if total := MergeDedupSummaries([]*DedupSummary{s, nil}); total.Deduped != s.Deduped {
				t.Fatalf("merge dropped materializations: %d vs %d", total.Deduped, s.Deduped)
			}
		}
	}

	// Shadow mode on the shard path: every member simulates and the
	// runner fails the shard on any disagreement with its representative.
	vcfg := dcfg
	vcfg.Verify = true
	vr := NewShardRunner(vcfg)
	if _, _, err := vr.RunShard(spec, 0, n); err != nil {
		t.Fatalf("shard shadow mode: %v", err)
	}
}
