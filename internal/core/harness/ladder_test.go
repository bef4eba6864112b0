package harness

import (
	"math/rand"
	"reflect"
	"testing"

	"armsefi/internal/core/fault"
	"armsefi/internal/soc"
)

// ladderBench builds a workbench with a ladder of roughly `rungs` rungs,
// plus a ladder-free sibling over the same workload for reference runs.
func ladderBench(t *testing.T, warm bool, rungs int) (withLadder, plain *Workbench) {
	t.Helper()
	wb, err := New(soc.PresetModel(), soc.ModelDetailed, newBench(t, "crc32"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := wb.Clone() // cloned before BuildLadder: stays ladder-free
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.BuildLadder(wb.Golden.Cycles/uint64(rungs)+1, rungs, warm); err != nil {
		t.Fatal(err)
	}
	if wb.Ladder.Rungs() < 2 {
		t.Fatalf("only %d rungs over %d golden cycles", wb.Ladder.Rungs(), wb.Golden.Cycles)
	}
	return wb, ref
}

// sampleFault draws one uniform fault over the given components.
func sampleFault(rng *rand.Rand, m *soc.Machine, comps []fault.Component, goldenCycles uint64) fault.Fault {
	comp := comps[rng.Intn(len(comps))]
	return fault.Fault{
		Comp:  comp,
		Bit:   uint64(rng.Int63n(int64(fault.SizeBits(m, comp)))),
		Cycle: uint64(rng.Int63n(int64(goldenCycles))),
	}
}

// TestLadderBitIdentityAndEarlyExitSoundness is the ladder's contract test:
// over a random fault sample, every ladder run must return exactly the
// class, context, and raw Result of the plain restore-and-replay path; and
// every fault the ladder exits early on must (by re-execution without the
// ladder) truly be Masked.
func TestLadderBitIdentityAndEarlyExitSoundness(t *testing.T) {
	for _, warm := range []bool{false, true} {
		wb, ref := ladderBench(t, warm, 24)
		rng := rand.New(rand.NewSource(11))
		comps := []fault.Component{fault.CompRegFile, fault.CompL1D, fault.CompDTLB}
		n := 40
		if testing.Short() {
			n = 12
		}
		earlyExits := 0
		for i := 0; i < n; i++ {
			f := sampleFault(rng, wb.Machine, comps, wb.Golden.Cycles)
			cls, ctx, res, stats := wb.RunFaultLadder(f, warm)
			pcls, pctx, pres := ref.RunFaultFull(f, warm)
			if cls != pcls || ctx != pctx || !reflect.DeepEqual(res, pres) {
				t.Fatalf("warm=%v fault %+v: ladder (%v, %+v, %+v) != plain (%v, %+v, %+v)",
					warm, f, cls, ctx, res, pcls, pctx, pres)
			}
			if stats.EarlyExit {
				earlyExits++
				if cls != fault.ClassMasked {
					t.Fatalf("warm=%v fault %+v: early exit classified %v, soundness requires Masked",
						warm, f, cls)
				}
			}
		}
		if earlyExits == 0 {
			t.Errorf("warm=%v: no early exits in %d faults — convergence detection inert?", warm, n)
		}
	}
}

// TestLadderFastForwardsInjections checks that rung restores actually skip
// golden-prefix cycles for late injections.
func TestLadderFastForwardsInjections(t *testing.T) {
	wb, _ := ladderBench(t, false, 16)
	f := fault.Fault{Comp: fault.CompRegFile, Bit: 33, Cycle: wb.Golden.Cycles - 1}
	_, _, _, stats := wb.RunFaultLadder(f, false)
	if stats.FastForwarded == 0 {
		t.Fatal("late injection started from cycle zero despite the ladder")
	}
	if stats.FastForwarded > f.Cycle {
		t.Fatalf("fast-forwarded %d cycles past the injection cycle %d", stats.FastForwarded, f.Cycle)
	}
}

// TestLadderWarmModeMismatchFallsBack pins that a ladder captured for one
// warm mode never serves the other mode's runs.
func TestLadderWarmModeMismatchFallsBack(t *testing.T) {
	wb, ref := ladderBench(t, false, 8)
	f := fault.Fault{Comp: fault.CompRegFile, Bit: 65, Cycle: wb.Golden.Cycles / 2}
	cls, _, res, stats := wb.RunFaultLadder(f, true) // warm run, cold ladder
	if stats != (soc.LadderStats{}) {
		t.Fatalf("mismatched warm mode still used the ladder: %+v", stats)
	}
	pcls, _, pres := ref.RunFaultFull(f, true)
	if cls != pcls || !reflect.DeepEqual(res, pres) {
		t.Fatalf("fallback path diverged: %v vs %v", cls, pcls)
	}
}

// TestCloneSharesLadder verifies clones inherit the ladder and produce the
// primary's exact results through it.
func TestCloneSharesLadder(t *testing.T) {
	wb, _ := ladderBench(t, false, 8)
	clone, err := wb.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.Ladder != wb.Ladder {
		t.Fatal("clone did not inherit the ladder")
	}
	f := fault.Fault{Comp: fault.CompL1D, Bit: 4097, Cycle: wb.Golden.Cycles / 3}
	cls, ctx, res, _ := wb.RunFaultLadder(f, false)
	ccls, cctx, cres, _ := clone.RunFaultLadder(f, false)
	if cls != ccls || ctx != cctx || !reflect.DeepEqual(res, cres) {
		t.Fatalf("clone ladder run diverged: %v vs %v", cls, ccls)
	}
}

// TestLadderHighBitCollisionReproducer pins a false golden convergence
// the ladder once returned. The fault corrupts a word that the workload
// then copies into a second dirty L1D line; at a later rung both lines
// differ from golden in the same high bit, which the old fingerprint —
// whose multiply steps only carried differences upward — cancelled, so
// the run exited early as Masked while a plain replay reports an SDC.
// The ladder run must classify exactly like the plain one.
func TestLadderHighBitCollisionReproducer(t *testing.T) {
	wb, err := New(soc.PresetModel(), soc.ModelDetailed, newBench(t, "qsort"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := wb.Clone() // cloned before BuildLadder: stays ladder-free
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.BuildLadder(soc.DefaultCheckpointEvery, soc.DefaultMaxCheckpoints, false); err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Comp: fault.CompL1D, Bit: 119934, Cycle: 59008}
	want := ref.RunFault(f)
	got := wb.RunFault(f)
	if got != want {
		t.Fatalf("ladder run classified %v, plain replay %v", got, want)
	}
}
