// Hang proof: the early exit for injection runs that hang, the match of
// golden convergence for runs that end Masked. A faulty run that outlives
// the golden run is sampled at cycles aligned to a committed-PC anchor.
// The state walk is the one golden convergence uses, in its canonical
// (shift-invariant) form; a sample hashes its cheap first stage (core and
// devices) and the dirty-page bitmap, and a sample that repeats an
// earlier one proposes the period P between them. As in the ladder's
// staged convergence check, the cheap stage only filters: the proof is
// exact. The walk's full byte image, caches and TLBs included, plus the
// dirtied DRAM pages are recorded at cycle t, and the run is confirmed
// only if the state at t+P is byte-identical; the confirming walk is
// compared with the recording as it runs, so a machine holds one
// snapshot. The machine is deterministic, so from then on it repeats the
// same P cycles forever: it can never power off or go fatal, and
// everything a Result reports is either unchanged (output, heartbeats,
// alive calls, last-beat cycle — all part of the compared state) or grows
// by the same amount every period (cycles, instructions). The Result at the watchdog is therefore
// computed, not simulated.
//
// Timer projection: a kernel spinning with interrupts masked leaves the
// timer interrupt pending while the timer count keeps running, so its
// state recurs only every lcm(loop, timer period) cycles. While the
// interrupt is pending and nothing reads or writes the timer, the count
// cannot affect anything (ticks only set the already-set pending flag),
// so the walk leaves it out when pending is set, and the confirmation
// requires the timer's MMIO access counter unchanged over the period.
//
// Provenance probes: a probe still holding taint would keep recording
// events the computed Result skips, so while any array tracks taint the
// run is not sampled — unless the run is verified, in which case it
// simulates to the watchdog anyway.

package soc

import "armsefi/internal/mem"

const (
	// hangSampleEvery is the minimum spacing of recurrence samples in
	// cycles. A sample hashes the core and devices (microseconds); a
	// proposed period costs two walks over the caches (up to a
	// millisecond with a full L2), once per candidate.
	hangSampleEvery = 4096
	// hangReanchorAfter is how long sampling waits past its due cycle for
	// the anchor PC before taking a sample anyway and re-anchoring on the
	// current PC (the run left the code the anchor was picked in).
	hangReanchorAfter = 4 * hangSampleEvery
)

// hangScratch holds a machine's reusable hang-proof buffers: the one exact
// state snapshot (walk image, dirty-page bitmap and page copies), the
// few-kilobyte window the confirming walk streams through to compare
// itself with the snapshot, and the sample table. Runs reuse them, so
// once warm a proof allocates only each walk's small Hasher.
type hangScratch struct {
	img, window []byte
	dirty       []uint64
	pages       []byte
	seen        map[uint64]uint64 // sample hash -> cycle
}

// hangProof is one run's recurrence search.
type hangProof struct {
	on       bool
	watchdog uint64

	// Sampling: due is the earliest cycle of the next sample, taken at the
	// first cycle after it whose commits land the committed PC on anchor,
	// or at stale regardless. prevPC and prevInstrs are the previous
	// cycle's committed PC and instruction count.
	anchor, prevPC uint32
	prevInstrs     uint64
	due, stale     uint64

	// Confirmation of a candidate period: the snapshot was taken at t1;
	// the state must recur exactly at t1+period. The watchdog lies q
	// periods and rem cycles past t1, and at/atInstr record the first step
	// boundary at or past offset rem and the instruction count there.
	confirming       bool
	t1, period       uint64
	q, rem           uint64
	i1, timerAcc     uint64
	at, atInstr      uint64
	haveAt           bool
	pendingAtConfirm bool
}

// newHangProof starts a recurrence search that samples from cycle from
// (the golden run's length) on.
func (m *Machine) newHangProof(from, watchdog uint64) hangProof {
	if m.hang.seen == nil {
		m.hang.seen = make(map[uint64]uint64)
	}
	clear(m.hang.seen)
	return hangProof{on: true, watchdog: watchdog, due: from, stale: from}
}

// observe runs at every step boundary from cycle due on (abs is the
// current cycle) and reports whether the run's recurrence is now proven.
// Off sample points it costs a PC compare.
func (p *hangProof) observe(m *Machine, abs uint64) bool {
	pc, instrs := m.core.PC(), m.core.Instructions()
	enter := pc == p.anchor && (pc != p.prevPC || instrs != p.prevInstrs)
	p.prevPC, p.prevInstrs = pc, instrs
	if p.confirming {
		return p.confirm(m, abs)
	}
	if !enter && abs < p.stale {
		return false
	}
	if abs >= p.stale {
		p.anchor = pc
	}
	p.due = abs + hangSampleEvery
	p.stale = p.due + hangReanchorAfter
	if !m.VerifyConvergence && m.tainted() {
		return false
	}
	h := mem.NewHasher()
	m.headFingerprint(h, true)
	m.DRAM.FoldDirty(h)
	sum := h.Sum()
	if t0, ok := m.hang.seen[sum]; !ok {
		m.hang.seen[sum] = abs
	} else if abs+(abs-t0) < p.watchdog {
		// Periods grow from the first sample of a state: if the arrays
		// recur only over a multiple of the core's period, a later repeat
		// proposes that multiple.
		p.begin(m, abs, abs-t0)
	}
	return false
}

// begin records the exact snapshot at t1 = abs and starts confirming the
// candidate period.
func (p *hangProof) begin(m *Machine, abs, period uint64) {
	m.hang.img = m.hang.img[:0]
	m.microFingerprint(mem.NewImageHasher(&m.hang.img), true)
	m.hang.dirty, m.hang.pages = m.DRAM.SaveDirty(m.hang.dirty, m.hang.pages)
	p.confirming = true
	p.t1, p.period = abs, period
	p.q, p.rem = (p.watchdog-abs)/period, (p.watchdog-abs)%period
	p.i1 = m.core.Instructions()
	p.timerAcc = m.Timer.accesses
	p.pendingAtConfirm = m.Timer.pending
	p.haveAt = false
	p.due = abs // observe every boundary while confirming
	p.record(m, abs)
}

// record notes the first step boundary at or past offset rem.
func (p *hangProof) record(m *Machine, abs uint64) {
	if off := abs - p.t1; !p.haveAt && off >= p.rem {
		p.at, p.atInstr, p.haveAt = off, m.core.Instructions(), true
	}
}

// confirm advances a confirmation; at t1+period it compares the state
// with the snapshot exactly. A failed candidate resumes sampling.
func (p *hangProof) confirm(m *Machine, abs uint64) bool {
	p.record(m, abs)
	off := abs - p.t1
	if off < p.period {
		return false
	}
	p.confirming = false
	p.due, p.stale = abs+hangSampleEvery, abs+hangSampleEvery+hangReanchorAfter
	if off != p.period {
		return false // the step sequence skipped t1+period: no recurrence
	}
	if p.pendingAtConfirm && m.Timer.accesses != p.timerAcc {
		return false // the count was projected away but the timer was touched
	}
	h := mem.NewCheckHasher(m.hang.img, &m.hang.window)
	m.microFingerprint(h, true)
	return h.Matches() && m.DRAM.SameDirty(m.hang.dirty, m.hang.pages)
}

// extrapolate returns the proven run's cycle and instruction counts at
// the watchdog: the first step boundary at or past it lies q periods past
// the recorded boundary at offset at, and every period commits the
// instructions the confirmation period committed. Call it at t1+period.
func (p *hangProof) extrapolate(m *Machine) (cycles, instrs uint64) {
	perPeriod := m.core.Instructions() - p.i1
	return p.t1 + p.q*p.period + p.at, p.atInstr + p.q*perPeriod
}

// extrapolateHang computes a proven hang's watchdog counters. It is a
// variable so a test can substitute a wrong computation and show that
// VerifyConvergence catches it.
var extrapolateHang = (*hangProof).extrapolate

// tainted reports whether any array of the machine still tracks a
// provenance taint.
func (m *Machine) tainted() bool {
	return m.core.Tainted() || m.DRAM.Tainted() ||
		m.Mem.L1I.Tainted() || m.Mem.L1D.Tainted() || m.Mem.L2.Tainted() ||
		m.Mem.ITLB.Tainted() || m.Mem.DTLB.Tainted()
}
