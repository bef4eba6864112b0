package gefin

import (
	"strings"
	"testing"

	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
	"armsefi/internal/soc"
)

// TestLadderAndWorkerInvariance is the checkpoint ladder's campaign-level
// contract: the aggregated Result is bit-identical with the ladder on or
// off, at one worker or many — the ladder (and its cycle-sorted execution
// order) is purely an execution optimisation.
func TestLadderAndWorkerInvariance(t *testing.T) {
	base := Config{
		FaultsPerComponent: faultsN(24),
		Seed:               2025,
		Components:         []fault.Component{fault.CompRegFile, fault.CompL1D, fault.CompDTLB},
	}
	var ref *WorkloadResult
	for _, workers := range []int{1, 4} {
		for _, every := range []uint64{0, 10_000} {
			cfg := base
			cfg.Workers = workers
			cfg.CheckpointEvery = every
			res := runSmall(t, cfg, "crc32")
			if ref == nil {
				ref = res
				continue
			}
			if res.GoldenCycles != ref.GoldenCycles || res.GoldenInstrs != ref.GoldenInstrs {
				t.Fatalf("workers=%d every=%d: golden %d/%d differs from reference %d/%d",
					workers, every, res.GoldenCycles, res.GoldenInstrs, ref.GoldenCycles, ref.GoldenInstrs)
			}
			equalComponentResults(t, ref, res)
		}
	}
}

// TestLadderWarmCampaignInvariance repeats the contract for the warm-cache
// ablation, whose ladder is captured under warm restores.
func TestLadderWarmCampaignInvariance(t *testing.T) {
	cfg := Config{
		FaultsPerComponent: faultsN(15),
		Seed:               9,
		Components:         []fault.Component{fault.CompRegFile, fault.CompL1D},
		WarmCaches:         true,
	}
	off := runSmall(t, cfg, "qsort")
	cfg.CheckpointEvery = soc.DefaultCheckpointEvery
	on := runSmall(t, cfg, "qsort")
	equalComponentResults(t, off, on)
}

// TestVerifyCampaignProvesHangs runs a Verify campaign whose TLB faults
// include kernel hangs the ladder proves by exact state recurrence. Every
// proven run still simulates to the watchdog and must reproduce the
// computed Result, so the campaign completes with zero mismatches; its
// trace shows the proofs, each on a timeout; and its Workloads equal the
// ladder-free campaign's.
func TestVerifyCampaignProvesHangs(t *testing.T) {
	cfg := Config{
		FaultsPerComponent: 10,
		Seed:               11,
		Workers:            2,
		CheckpointEvery:    soc.DefaultCheckpointEvery,
		Verify:             true,
		Components:         []fault.Component{fault.CompITLB, fault.CompDTLB},
	}
	res, sum := runTraced(t, cfg, "crc32")
	proofs := 0
	for _, cr := range res.Components {
		c := sum.Component(obs.KindInjection, "crc32", cr.Comp)
		proofs += c.HangProofs
		if c.HangProofBad != 0 {
			t.Errorf("%v: %d hang-proof records did not time out", cr.Comp, c.HangProofBad)
		}
	}
	if proofs == 0 {
		t.Fatal("no hang proof in the campaign: the Verify cross-check covered none")
	}
	cfg.CheckpointEvery, cfg.Verify = 0, false
	equalComponentResults(t, runSmall(t, cfg, "crc32"), res)
}

// TestVerifyFailsOnLadderMismatch pins that a ladder disagreement counted
// by a run (a convergence check or a hang proof's computed Result) fails
// the campaign with an error naming the injection.
func TestVerifyFailsOnLadderMismatch(t *testing.T) {
	w := &prepared{plan: []plannedFault{{f: fault.Fault{Comp: fault.CompDTLB, Bit: 193, Cycle: 61695}}}}
	r := &resolution{outcomes: []outcome{{ladderMismatches: 1}}, via: []slotVia{viaSimulated}}
	miss := w.verify(0, r, nil)
	err := miss.err("crc32")
	if miss.ladder != 1 || err == nil || !strings.Contains(err.Error(), "dtlb bit=193 cycle=61695") {
		t.Fatalf("ladder mismatch: counted %d, campaign error %v", miss.ladder, err)
	}
}
