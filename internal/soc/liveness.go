// Instrumented golden replay for the campaign pre-filter: one fault-free
// run with liveness recorders attached to every cache and TLB, producing
// the immutable LivenessLog the ACE-style analysis queries to classify
// planned injections without simulating them, and from which ace.Run
// reads each structure's lifetime-based AVF estimate.
//
// The replay loop mirrors RunWithInjection cycle-for-cycle and stamps
// every recorded event with the top-of-loop cycle value — the exact
// instants at which the injection loops fire inject(). An injection at
// cycle F therefore lands before every event stamped >= F and after
// every event stamped < F, which is what makes the log's verdicts exact
// rather than approximate.

package soc

import "armsefi/internal/mem"

// LivenessLog is the queryable result of one instrumented golden replay:
// per-structure liveness recordings plus the replay's Result (which must
// equal the golden Result — the harness validates this).
type LivenessLog struct {
	// Warm records which restore mode the replay ran under; it must match
	// the campaign's, like the ladder's.
	Warm bool
	// Final is the replay's complete Result.
	Final Result

	L1I, L1D, L2 *mem.CacheLiveness
	ITLB, DTLB   *mem.TLBLiveness

	// now is the shared event-stamp clock the recorders read; it advances
	// only during the replay and is dead weight afterwards.
	now uint64
}

// ReplayLiveness performs the instrumented golden replay: restore the
// post-boot snapshot (warm or cold exactly as injection runs will), run
// fault-free to completion with liveness recording attached, and return
// the log. The machine is left at the end state of the run.
func (m *Machine) ReplayLiveness(base *Snapshot, warm bool, budget uint64) *LivenessLog {
	m.RestoreSnapshot(base, warm)
	log := &LivenessLog{Warm: warm}
	log.L1I = m.Mem.L1I.AttachLiveness(&log.now)
	log.L1D = m.Mem.L1D.AttachLiveness(&log.now)
	log.L2 = m.Mem.L2.AttachLiveness(&log.now)
	log.ITLB = m.Mem.ITLB.AttachLiveness(&log.now)
	log.DTLB = m.Mem.DTLB.AttachLiveness(&log.now)
	defer func() {
		m.Mem.L1I.DetachLiveness()
		m.Mem.L1D.DetachLiveness()
		m.Mem.L2.DetachLiveness()
		m.Mem.ITLB.DetachLiveness()
		m.Mem.DTLB.DetachLiveness()
	}()

	lastBeats := m.SysCtl.Beats()
	lastBeatAbs := uint64(0)

	res := Result{}
	for {
		if m.SysCtl.Halted() {
			res.Outcome = OutcomePowerOff
			res.ExitCode = m.SysCtl.ExitCode()
			break
		}
		if m.core.Fatal() {
			res.Outcome = OutcomeFatal
			break
		}
		abs := m.core.Cycles()
		if abs >= budget {
			res.Outcome = OutcomeTimeout
			break
		}
		// Everything the coming step does is stamped with the cycle at
		// which an injection targeting it would have fired.
		log.now = abs
		d := m.core.StepCycle()
		m.Timer.Tick(d)
		if b := m.SysCtl.Beats(); b != lastBeats {
			lastBeats = b
			lastBeatAbs = m.core.Cycles()
		}
	}
	log.Final = m.resultSince(base, res, lastBeatAbs)
	return log
}
