package soc

import (
	"bytes"
	"reflect"
	"testing"

	"armsefi/internal/mem"
)

// A workload long enough to cross several small rung boundaries: a loop
// that touches memory and prints a digest, with the usual clean exit.
const ladderAppSource = `
.text
_start:
	ldr sp, =0x3F0000
	ldr r4, =buf
	mov r8, #250
outer:
	mov r5, #0
	mov r6, #0
loop:
	ldr r1, [r4, r5]
	add r6, r6, r1
	str r6, [r4, r5]
	add r5, #4
	cmp r5, #128
	blt loop
	subs r8, r8, #1
	bne outer
	ldr r0, =msg
	mov r1, #4
	mov r7, #2
	svc #0
	mov r0, #0
	mov r7, #1
	svc #0
.data
msg: .word 0x0a6b6f21
buf: .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
buf2: .word 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32
`

const ladderBudget = 5_000_000

func captureLadder(t *testing.T, model ModelKind, warm bool, every uint64) (*Machine, *Snapshot, *Ladder) {
	t.Helper()
	m := bootMachine(t, model, ladderAppSource)
	snap := m.SaveSnapshot()
	l := m.CaptureLadder(snap, warm, every, 0, ladderBudget)
	if !l.Final.CleanExit() {
		t.Fatalf("%v warm=%v: capture run not clean: %v code=%#x",
			model, warm, l.Final.Outcome, l.Final.ExitCode)
	}
	return m, snap, l
}

// TestCaptureLadderFinalMatchesPlainRun pins that the instrumented capture
// replay produces exactly the Result of an uninstrumented golden run.
func TestCaptureLadderFinalMatchesPlainRun(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		for _, warm := range []bool{false, true} {
			m, snap, l := captureLadder(t, model, warm, 2_000)
			if l.Rungs() < 3 {
				t.Fatalf("%v warm=%v: only %d rungs (golden %d cycles)",
					model, warm, l.Rungs(), l.Final.Cycles)
			}
			m.RestoreSnapshot(snap, warm)
			plain := m.Run(ladderBudget)
			if !reflect.DeepEqual(plain, l.Final) {
				t.Errorf("%v warm=%v: capture Final %+v != plain run %+v",
					model, warm, l.Final, plain)
			}
		}
	}
}

// TestRestoreCheckpointBitIdenticalToReplay verifies, for every rung, that
// restoring the rung reproduces exactly the state (fingerprint and
// architectural state) a full replay reaches at the rung cycle, and that a
// run continued from the rung completes the golden run bit-for-bit.
func TestRestoreCheckpointBitIdenticalToReplay(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		m, snap, l := captureLadder(t, model, false, 2_000)
		for i, c := range l.rungs {
			// Replay from the snapshot, sampling the fingerprint at the rung
			// cycle via the injection hook (it runs at the top of the step
			// loop, the exact point captureCheckpoint runs at).
			// The fingerprint leaves out the cycle and instruction
			// counters, so they are compared on their own.
			var replayFP, replayInstrs uint64
			m.RestoreSnapshot(snap, false)
			m.RunWithInjection(ladderBudget, c.Cycle, func() {
				replayFP, replayInstrs = m.Fingerprint(), m.Core().Instructions()
			})
			if replayFP != c.Fingerprint {
				t.Errorf("%v rung %d (cycle %d): replay fingerprint %#x != captured %#x",
					model, i, c.Cycle, replayFP, c.Fingerprint)
			}

			// Restore the rung directly: same fingerprint, same arch state,
			// and the continued run must complete the golden tail exactly.
			m.RestoreCheckpoint(l, c)
			if got := m.Fingerprint(); got != c.Fingerprint {
				t.Errorf("%v rung %d: restored fingerprint %#x != captured %#x",
					model, i, got, c.Fingerprint)
			}
			if m.Core().Cycles() != c.Cycle {
				t.Errorf("%v rung %d: restored cycle %d != %d", model, i, m.Core().Cycles(), c.Cycle)
			}
			if got := m.Core().Instructions(); got != replayInstrs {
				t.Errorf("%v rung %d: restored instruction count %d != replay %d",
					model, i, got, replayInstrs)
			}
			cont := m.Run(ladderBudget)
			if cont.Cycles != l.Final.Cycles-c.Cycle {
				t.Errorf("%v rung %d: continued run %d cycles, want %d",
					model, i, cont.Cycles, l.Final.Cycles-c.Cycle)
			}
			prefix := c.uart[len(snap.uart):]
			full := append(append([]byte(nil), prefix...), cont.Output...)
			if !bytes.Equal(full, l.Final.Output) {
				t.Errorf("%v rung %d: prefix+tail output %q != golden %q",
					model, i, full, l.Final.Output)
			}
			if !cont.CleanExit() {
				t.Errorf("%v rung %d: continued run not clean: %v", model, i, cont.Outcome)
			}
		}
	}
}

// TestRunLadderInjectionMatchesFullRun pins the bit-identity contract: for
// a spread of injection cycles and a real bit flip, the ladder path yields
// exactly the Result of restore-from-snapshot plus full replay.
func TestRunLadderInjectionMatchesFullRun(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		for _, warm := range []bool{false, true} {
			m, snap, l := captureLadder(t, model, warm, 2_000)
			watchdog := 2*l.Final.Cycles + 1_000_000
			for _, frac := range []uint64{0, 3, 7, 12, 19, 31, 47, 63} {
				at := l.Final.Cycles * frac / 64
				bit := (frac*977 + 13) % m.Core().RegFileBits()
				m.RestoreSnapshot(snap, warm)
				want := m.RunWithInjection(watchdog, at, func() { m.Core().FlipRegFileBit(bit) })
				got, _ := m.RunLadderInjection(l, watchdog, at, func() { m.Core().FlipRegFileBit(bit) })
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v warm=%v at=%d bit=%d: ladder %+v != full %+v",
						model, warm, at, bit, got, want)
				}
			}
		}
	}
}

// TestRunLadderInjectionEarlyExit uses a self-cancelling injection (flip a
// bit twice) so the machine state provably rejoins the golden timeline: the
// first rung crossing after the injection must detect convergence.
func TestRunLadderInjectionEarlyExit(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		m, _, l := captureLadder(t, model, false, 2_000)
		watchdog := 2*l.Final.Cycles + 1_000_000
		at := l.Final.Cycles / 3
		inject := func() {
			m.Core().FlipRegFileBit(40)
			m.Core().FlipRegFileBit(40)
		}
		res, stats := m.RunLadderInjection(l, watchdog, at, inject)
		if !stats.EarlyExit {
			t.Fatalf("%v: no early exit for a state-neutral injection at cycle %d", model, at)
		}
		if stats.TailSaved == 0 {
			t.Errorf("%v: early exit saved no cycles", model)
		}
		if !reflect.DeepEqual(res, l.Final) {
			t.Errorf("%v: early-exit result %+v != golden %+v", model, res, l.Final)
		}
	}
}

// TestFastForwardGolden pins the beam fast-forward: restoring the end state
// returns the golden Result, and the machine is left exactly as a full
// golden run leaves it (halted, with identical fingerprint).
func TestFastForwardGolden(t *testing.T) {
	m, snap, l := captureLadder(t, ModelAtomic, true, 2_000)
	m.RestoreSnapshot(snap, true)
	plain := m.Run(ladderBudget)
	endFP := m.Fingerprint()
	endCycles, endInstrs := m.Core().Cycles(), m.Core().Instructions()
	res := m.FastForwardGolden(l)
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("fast-forward result %+v != plain run %+v", res, plain)
	}
	if got := m.Fingerprint(); got != endFP {
		t.Errorf("fast-forwarded end state fingerprint %#x != full-run %#x", got, endFP)
	}
	// The fingerprint leaves out the core's counters: compare them too.
	if c, i := m.Core().Cycles(), m.Core().Instructions(); c != endCycles || i != endInstrs {
		t.Errorf("fast-forwarded core at cycle %d, %d instructions; full run %d, %d",
			c, i, endCycles, endInstrs)
	}
	if !m.SysCtl.Halted() {
		t.Error("fast-forwarded machine not halted")
	}
}

// TestCaptureLadderMaxCheckpoints bounds the ladder size.
func TestCaptureLadderMaxCheckpoints(t *testing.T) {
	m := bootMachine(t, ModelAtomic, ladderAppSource)
	snap := m.SaveSnapshot()
	l := m.CaptureLadder(snap, false, 1_000, 4, ladderBudget)
	if l.Rungs() > 5 { // rung 0 plus at most max mid-run rungs
		t.Errorf("ladder holds %d rungs, max 4 requested", l.Rungs())
	}
	if l.MemoryBytes() <= 0 {
		t.Error("MemoryBytes reported nothing retained")
	}
}

// TestLadderDebugCrossCheckAgrees runs ladder injections with the
// convergence cross-check enabled (Machine.VerifyConvergence): every
// incremental dirty-page convergence verdict is compared against the
// exact full-image comparison, so zero counted mismatches — with results
// still bit-identical to full replays — proves the fast path agrees with
// the exact one at every rung crossing.
func TestLadderDebugCrossCheckAgrees(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		m, snap, l := captureLadder(t, model, false, 2_000)
		m.VerifyConvergence = true
		watchdog := 2*l.Final.Cycles + 1_000_000
		for _, frac := range []uint64{0, 9, 21, 42, 63} {
			at := l.Final.Cycles * frac / 64
			bit := (frac*977 + 13) % m.Core().RegFileBits()
			m.RestoreSnapshot(snap, false)
			want := m.RunWithInjection(watchdog, at, func() { m.Core().FlipRegFileBit(bit) })
			got, stats := m.RunLadderInjection(l, watchdog, at, func() { m.Core().FlipRegFileBit(bit) })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v at=%d bit=%d: cross-checked ladder %+v != full %+v",
					model, at, bit, got, want)
			}
			if stats.VerifyMismatches != 0 {
				t.Errorf("%v at=%d bit=%d: %d convergence mismatches", model, at, bit, stats.VerifyMismatches)
			}
		}
	}
}

// TestLadderDebugCrossCheckCountsDisagreement seeds a disagreement — a
// corrupted per-page fingerprint (with its diffPages bit set so the
// check visits it) for a page the workload never touches, making the
// incremental verdict false while the exact comparison still sees a
// converged machine — and requires the cross-check to count it rather
// than panic, while the run itself still follows the incremental verdict.
func TestLadderDebugCrossCheckCountsDisagreement(t *testing.T) {
	m, _, l := captureLadder(t, ModelAtomic, false, 2_000)
	watchdog := 2*l.Final.Cycles + 1_000_000
	at := l.Final.Cycles / 3
	last := (len(l.base.dram) - 1) / mem.PageBytes // top page: never written
	for _, r := range l.rungs {
		// Corrupt only rungs past the injection point: the restored rung's
		// fingerprints (shared with its page image) must stay true or the
		// comparison would see two identically-corrupted sets agree.
		if r.Cycle > at {
			r.diffPages[last>>6] |= 1 << (last & 63)
			r.pageFP[last] ^= 0xDEADBEEF
		}
	}
	// A fault that cancels itself: the run is golden from the injection on.
	inject := func() {
		m.Core().FlipRegFileBit(40)
		m.Core().FlipRegFileBit(40)
	}
	_, plain := m.RunLadderInjection(l, watchdog, at, inject)
	if plain.VerifyMismatches != 0 {
		t.Fatalf("unverified run counted %d mismatches", plain.VerifyMismatches)
	}
	m.VerifyConvergence = true
	res, stats := m.RunLadderInjection(l, watchdog, at, inject)
	if stats.VerifyMismatches == 0 {
		t.Fatal("corrupted rung metadata did not trip the cross-check")
	}
	if stats.EarlyExit != plain.EarlyExit || res.Cycles != l.Final.Cycles {
		t.Fatalf("verified run changed the run: early exit %v vs %v, cycles %d vs %d",
			stats.EarlyExit, plain.EarlyExit, res.Cycles, l.Final.Cycles)
	}
}

// TestLadderConvergenceComparesInstructions pins the explicit instruction
// count in golden convergence: the state walk leaves the counter out, so
// a run whose state matches a rung's with a different count committed
// must not take the early exit. A self-cancelling fault converges at the
// first rung crossing; with the rungs' recorded counts off by one it
// must instead run to completion, still returning the full replay's
// Result.
func TestLadderConvergenceComparesInstructions(t *testing.T) {
	m, snap, l := captureLadder(t, ModelAtomic, false, 2_000)
	watchdog := 2*l.Final.Cycles + 1_000_000
	at := l.Final.Cycles / 3
	inject := func() {
		m.Core().FlipRegFileBit(40)
		m.Core().FlipRegFileBit(40)
	}
	m.RestoreSnapshot(snap, false)
	want := m.RunWithInjection(watchdog, at, inject)
	if _, stats := m.RunLadderInjection(l, watchdog, at, inject); !stats.EarlyExit {
		t.Fatal("self-cancelling fault did not converge")
	}
	for _, r := range l.rungs {
		if r.Cycle > at {
			r.instrs++
		}
	}
	got, stats := m.RunLadderInjection(l, watchdog, at, inject)
	if stats.EarlyExit || !reflect.DeepEqual(got, want) {
		t.Fatalf("instruction counts differ from every rung: early exit %v, ladder %+v, plain %+v",
			stats.EarlyExit, got, want)
	}
}
