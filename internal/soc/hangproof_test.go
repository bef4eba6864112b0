package soc

import (
	"reflect"
	"testing"

	"armsefi/internal/asm"
	"armsefi/internal/isa"
	"armsefi/internal/mem"
)

// hangLoopBase is where irqVectorHang places its loop: DRAM no workload
// of these tests touches.
const hangLoopBase = 0x380000

// irqVectorHang returns an injection that points the kernel's IRQ vector
// at a loop running body forever, so the next timer interrupt parks the
// core in a kernel loop with interrupts masked — the shape of the
// SysCrash hangs TLB faults cause. Caches are invalidated over the
// patched lines so the new code is what executes. Call it on a freshly
// booted machine (the vector base is read from its quiescent state).
func irqVectorHang(t *testing.T, m *Machine, body string) func() {
	t.Helper()
	vec := m.core.SaveArch().VBAR + 4*uint32(isa.VecIRQ)
	jump, err := asm.Assemble("vec.s", ".equ far, 0x380000\n_start:\n\tb far\n",
		asm.Config{TextBase: vec, DataBase: hangLoopBase + 0x8000})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := asm.Assemble("loop.s", "_start:\n"+body+"\n\tb _start\n",
		asm.Config{TextBase: hangLoopBase, DataBase: hangLoopBase + 0x8000})
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		for _, p := range []*asm.Program{jump, loop} {
			if err := m.PokeBytes(p.TextBase, p.Text); err != nil {
				t.Fatal(err)
			}
			for _, c := range []*mem.Cache{m.Mem.L1I, m.Mem.L1D, m.Mem.L2} {
				c.InvalidateRange(p.TextBase&^31, uint32(len(p.Text))+32)
			}
		}
	}
}

// TestHangProofMatchesPlainRun pins the hang proof's contract on both CPU
// models: a run parked in a masked kernel loop is proven (through the
// timer projection: the loop never touches the timer, and its period is
// no multiple of the timer's) and returns exactly the plain run's Result,
// while loops that read or acknowledge the timer are never proven through
// the projection — any proof they get must recur with the timer count
// included, at a multiple of the timer period.
func TestHangProofMatchesPlainRun(t *testing.T) {
	const timerPeriod = 20_000
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		for _, tc := range []struct {
			name, body string
			projected  bool // proven, through the projection
		}{
			{"spin", "\tadd r2, r2, #0", true},
			{"reads-timer", "\tmovw r1, #0x1000\n\tmovt r1, #0x40\n\tldr r0, [r1]", false},
			{"acks-timer", "\tmovw r1, #0x1000\n\tmovt r1, #0x40\n\tstr r0, [r1, #4]", false},
		} {
			m := bootMachine(t, model, ladderAppSource)
			inject := irqVectorHang(t, m, tc.body)
			snap := m.SaveSnapshot()
			l := m.CaptureLadder(snap, false, 2_000, 0, ladderBudget)
			watchdog := 2*l.Final.Cycles + 1_000_000
			at := l.Final.Cycles / 3
			m.RestoreSnapshot(snap, false)
			want := m.RunWithInjection(watchdog, at, inject)
			got, stats := m.RunLadderInjection(l, watchdog, at, inject)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v %s: ladder %+v != plain %+v (%+v)", model, tc.name, got, want, stats)
			}
			if want.Outcome != OutcomeTimeout {
				t.Fatalf("%v %s: loop did not hang: %v", model, tc.name, want.Outcome)
			}
			projected := stats.HangProved && stats.HangPeriod%timerPeriod != 0
			if projected != tc.projected {
				t.Fatalf("%v %s: proved=%v period=%d, want projected proof %v",
					model, tc.name, stats.HangProved, stats.HangPeriod, tc.projected)
			}
			if stats.HangProved && (stats.TailSaved != got.Cycles-stats.ProvedAt || stats.ProvedAt <= l.Final.Cycles) {
				t.Fatalf("%v %s: inconsistent proof stats %+v", model, tc.name, stats)
			}
		}
	}
}

// TestHangProofVerify runs proven hangs under VerifyConvergence: the run
// simulates to the watchdog anyway, the computed Result must agree with
// it, and a deliberately wrong computation is counted as a mismatch —
// never a panic — while the simulated Result is what the run returns.
func TestHangProofVerify(t *testing.T) {
	m := bootMachine(t, ModelDetailed, ladderAppSource)
	inject := irqVectorHang(t, m, "\tadd r2, r2, #0")
	snap := m.SaveSnapshot()
	l := m.CaptureLadder(snap, false, 2_000, 0, ladderBudget)
	watchdog := 2*l.Final.Cycles + 1_000_000
	at := l.Final.Cycles / 3
	m.RestoreSnapshot(snap, false)
	want := m.RunWithInjection(watchdog, at, inject)

	m.VerifyConvergence = true
	got, stats := m.RunLadderInjection(l, watchdog, at, inject)
	if !reflect.DeepEqual(got, want) || !stats.HangProved || stats.VerifyMismatches != 0 || stats.TailSaved != 0 {
		t.Fatalf("verified proof: %+v vs plain %+v, stats %+v", got, want, stats)
	}

	defer func(f func(*hangProof, *Machine) (uint64, uint64)) { extrapolateHang = f }(extrapolateHang)
	extrapolateHang = func(p *hangProof, m *Machine) (uint64, uint64) {
		c, i := p.extrapolate(m)
		return c, i + 1
	}
	got, stats = m.RunLadderInjection(l, watchdog, at, inject)
	if stats.VerifyMismatches != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("wrong extrapolation: %d mismatches, result %+v vs plain %+v", stats.VerifyMismatches, got, want)
	}
}

// TestHangProofSkipsTaintedRuns pins the provenance rule: while any array
// tracks a taint the run is not sampled (its probe would keep recording
// events a computed Result skips), unless the run is verified.
func TestHangProofSkipsTaintedRuns(t *testing.T) {
	m := bootMachine(t, ModelDetailed, ladderAppSource)
	hang := irqVectorHang(t, m, "\tadd r2, r2, #0")
	snap := m.SaveSnapshot()
	l := m.CaptureLadder(snap, false, 2_000, 0, ladderBudget)
	watchdog := 2*l.Final.Cycles + 1_000_000
	at := l.Final.Cycles / 3
	inject := func() {
		hang()
		// A taint in a DRAM word nothing writes stays tracked to the end.
		m.DRAM.AbsorbTaint(DRAMBytes-4, new(mem.Probe))
	}
	for _, verify := range []bool{false, true} {
		m.VerifyConvergence = verify
		_, stats := m.RunLadderInjection(l, watchdog, at, inject)
		m.DRAM.ClearTaint()
		if stats.HangProved != verify {
			t.Fatalf("verify=%v: HangProved=%v with a live taint", verify, stats.HangProved)
		}
	}
}

// TestHangProofComparesDRAM pins the proof's DRAM half: a masked kernel
// loop recurs over its proven period, but not once a dirtied DRAM word
// nothing caches changes during the period — the walk alone would miss
// it, the dirty-page copy does not.
func TestHangProofComparesDRAM(t *testing.T) {
	m := bootMachine(t, ModelDetailed, ladderAppSource)
	inject := irqVectorHang(t, m, "\tadd r2, r2, #0")
	snap := m.SaveSnapshot()
	m.RestoreSnapshot(snap, false)
	m.DRAM.Rebase(snap.dram)
	inject() // dirties the loop's page, hangLoopBase
	step := func(n uint64) {
		for end := m.core.Cycles() + n; m.core.Cycles() < end; {
			m.Timer.Tick(m.core.StepCycle())
		}
	}
	step(100_000)
	p := m.newHangProof(m.core.Cycles(), 1<<40)
	for abs := m.core.Cycles(); abs < p.due || !p.observe(m, abs); abs = m.core.Cycles() {
		step(1)
	}
	period := p.period
	for _, poke := range []bool{false, true} {
		p.begin(m, m.core.Cycles(), period)
		step(period / 2)
		if poke {
			m.DRAM.Poke(hangLoopBase+0x800, 0xDEADBEEF)
		}
		step(period - period/2 - 1)
		if !p.confirming {
			t.Fatal("confirmation ended early")
		}
		step(1)
		if got := p.observe(m, m.core.Cycles()); got == poke {
			t.Fatalf("DRAM poked %v: recurrence proven %v", poke, got)
		}
	}
}
