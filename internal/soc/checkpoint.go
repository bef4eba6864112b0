// Checkpoint ladder: cycle-stamped mid-run machine checkpoints captured
// during one instrumented golden replay, used by the campaign engines to
// (a) fast-forward injection runs past the fault-free prefix by restoring
// the nearest rung at or below the injection cycle instead of replaying
// from the post-boot snapshot, and (b) stop a faulty run early when its
// state fingerprint matches the golden ladder's at a rung: from that
// point execution is deterministic and identical to the golden run, so
// the outcome is the golden Result — the optimisation that turns the
// dominant Masked class from full-runtime into prefix-runtime, as ARMORY
// and gem5-checkpoint (CHAOS-style) injectors do.
//
// Restores are bit-identical to full replay on the live-state surface:
// counters (cycle, instruction, sequence numbers) come back verbatim, so
// every absolute cycle stamp inside the pipeline, timer, and LRU arrays
// lines up with the golden timeline, and a fingerprint taken on a
// restored-and-resumed machine equals one taken on a machine that
// replayed every cycle.

package soc

import (
	"reflect"
	"sort"

	"armsefi/internal/cpu"
	"armsefi/internal/mem"
)

// Checkpoint is one ladder rung: the complete machine state at a cycle
// boundary of the golden run, with DRAM stored as an immutable
// copy-on-write page image against the post-boot snapshot (sharable
// across every worker of a pool), plus the state fingerprint used for
// the golden-convergence early exit.
type Checkpoint struct {
	// Cycle is the core cycle counter at capture (run-relative ==
	// absolute: golden runs start from LoadArch at cycle zero).
	Cycle uint64
	// Fingerprint is the 64-bit live-state hash at this rung.
	Fingerprint uint64

	// microFP is the non-DRAM prefix of Fingerprint (core micro-state,
	// caches, TLBs, devices). The early-exit check compares it first: it
	// hashes kilobytes instead of the whole DRAM image, and a diverged run
	// almost always differs here, making the per-crossing cost tiny.
	microFP uint64

	// lastBeatAbs is the capture run's last-heartbeat cycle at this rung;
	// it lives outside machine state (the run loop tracks it), so the
	// early-exit comparison checks it explicitly. instrs is the committed
	// instruction count, which the shift-invariant state walk leaves out:
	// the early exit returns the golden count, so it must match too.
	lastBeatAbs uint64
	instrs      uint64

	// pageFP holds the golden DRAM's per-page fingerprints at this rung and
	// diffPages the bitmap of pages where it differs from the base image
	// (both precomputed at capture). The early-exit check uses them to
	// compare only the pages dirtied since the last restore instead of
	// memcmp-ing the full image at every rung crossing.
	pageFP    []uint64
	diffPages []uint64

	img   *mem.PageImage
	micro *cpu.MicroState
	l1i   *mem.CacheState
	l1d   *mem.CacheState
	l2    *mem.CacheState
	itlb  *mem.TLBState
	dtlb  *mem.TLBState
	timer timerState
	sysc  sysCtlState
	uart  []byte
}

// Ladder is the checkpoint ladder of one golden run: rung 0 is the
// post-restore state at cycle zero, subsequent rungs are spaced
// EffectiveEvery cycles apart (first cycle boundary actually reached on
// the atomic model, which can skip boundaries), and end is the machine
// state the golden run left behind. Immutable after capture; safe to
// restore concurrently into sibling machines.
type Ladder struct {
	// Final is the complete golden Result of the capture run; the early
	// exit returns it verbatim.
	Final Result

	base  *Snapshot
	warm  bool
	every uint64
	rungs []*Checkpoint
	end   *Checkpoint
}

// LadderStats reports what the ladder did for one injection run.
type LadderStats struct {
	// FastForwarded is the golden-prefix cycle count skipped by the rung
	// restore (zero when the run started from rung 0).
	FastForwarded uint64
	// EarlyExit reports that the run was cut short by golden convergence.
	EarlyExit bool
	// TailSaved is the cycle count not executed thanks to an early exit:
	// golden total minus the convergence cycle, or the watchdog cycle minus
	// the hang-proof cycle.
	TailSaved uint64
	// DivergedAt is the cycle of the first rung crossing whose fingerprint
	// did NOT match golden — the cheapest upper bound on when the fault's
	// architectural effect was still visible. Zero when every crossing
	// matched (or none was compared).
	DivergedAt uint64
	// ConvergedAt is the cycle of the rung where the early exit fired
	// (zero when the run never converged back onto the golden ladder).
	ConvergedAt uint64
	// HangProved reports that the run's state was proven to recur exactly,
	// so it can only end at the watchdog; ProvedAt is the cycle the proof
	// completed and HangPeriod the proven recurrence period. Unless the
	// run was verified, TailSaved then counts the cycles from there to the
	// watchdog that were computed, not simulated.
	HangProved bool
	ProvedAt   uint64
	HangPeriod uint64
	// VerifyMismatches counts the fast-path verdicts Machine.VerifyConvergence
	// found wrong: rung crossings where the incremental dirty-page DRAM
	// comparison disagreed with the exact full-image one, and a proven
	// hang whose computed Result differs from the one simulated to the
	// watchdog. Either means a broken invariant; the campaign engines fail
	// the campaign on any.
	VerifyMismatches int
}

// Warm reports which restore mode the ladder was captured under.
func (l *Ladder) Warm() bool { return l.warm }

// Rungs returns the number of mid-run rungs (including rung 0).
func (l *Ladder) Rungs() int { return len(l.rungs) }

// EffectiveEvery returns the rung spacing actually used.
func (l *Ladder) EffectiveEvery() uint64 { return l.every }

// MemoryBytes estimates the ladder's retained memory: owned DRAM page
// payloads, cache and TLB copies, UART backlogs, and fixed per-rung
// bookkeeping. Page payloads interned from an earlier rung are counted
// once, by the owning rung — see SharedBytes for the saving.
func (l *Ladder) MemoryBytes() int {
	total := 0
	for _, c := range append(append([]*Checkpoint(nil), l.rungs...), l.end) {
		if c == nil {
			continue
		}
		total += c.img.Bytes() + len(c.uart) + 1024
		for _, cs := range []*mem.CacheState{c.l1i, c.l1d, c.l2} {
			total += cs.MemoryBytes()
		}
		for _, ts := range []*mem.TLBState{c.itlb, c.dtlb} {
			total += ts.MemoryBytes()
		}
	}
	return total
}

// SharedBytes reports the DRAM payload bytes the ladder's rungs share
// with earlier rungs through copy-on-write interning instead of copying —
// memory a delta-per-rung encoding would have duplicated. Additionally,
// because every rung image is immutable, all workers of a pool restore
// from the same ladder with no per-worker rung copies at all; the
// armsefi_ladder_shared_bytes metric surfaces this figure.
func (l *Ladder) SharedBytes() int {
	total := 0
	for _, c := range append(append([]*Checkpoint(nil), l.rungs...), l.end) {
		if c != nil {
			total += c.img.SharedBytes()
		}
	}
	return total
}

// RungCycleFor returns the cycle of the highest rung at or below cycle —
// the rung RunLadderInjection would restore for an injection at that
// cycle. The campaign engines use it to batch cycle-sorted injections
// that share a restore point.
func (l *Ladder) RungCycleFor(cycle uint64) uint64 { return l.rungFor(cycle).Cycle }

// rungFor returns the highest rung at or below cycle; rung 0 sits at
// cycle zero, so the result is always defined.
func (l *Ladder) rungFor(cycle uint64) *Checkpoint {
	i := sort.Search(len(l.rungs), func(i int) bool { return l.rungs[i].Cycle > cycle }) - 1
	return l.rungs[i]
}

// microFingerprint folds the machine's non-DRAM live state into h: core
// micro-state and device state (headFingerprint), then cache and TLB live
// content. Only
// provably dead state (content of invalid lines, free registers, expired
// deadlines — see the HashLive/HashMicro contracts) is excluded. The core
// walk leaves out the cycle and instruction counters and folds deadlines
// relative to now. With canonical set, the whole walk is shift-invariant —
// LRU stamps fold as ranks — and the timer count is left out while its
// interrupt is pending: the form the hang proof compares one run at two
// cycles in (see hangProof, which admits the projection only over
// stretches that make no timer access). Golden convergence compares two
// runs at one cycle, where the raw stamps and count are comparable; it
// keeps them because ranking every set costs each rung crossing about a
// third more (BenchmarkRungConvergence/incremental, median of ten
// interleaved runs: 101 us raw, 141 us ranked).
func (m *Machine) microFingerprint(h *mem.Hasher, canonical bool) {
	m.headFingerprint(h, canonical)
	m.Mem.L1I.HashLive(h, canonical)
	m.Mem.L1D.HashLive(h, canonical)
	m.Mem.L2.HashLive(h, canonical)
	m.Mem.ITLB.HashLive(h, canonical)
	m.Mem.DTLB.HashLive(h, canonical)
}

// headFingerprint folds the first, cheap stage of microFingerprint: the
// core and the devices — kilobytes, against the caches' hundreds.
func (m *Machine) headFingerprint(h *mem.Hasher, canonical bool) {
	m.core.HashMicro(h)
	h.Word32(m.Timer.period)
	h.Bool(m.Timer.pending)
	if !canonical || !m.Timer.pending {
		h.Word(m.Timer.count)
	}
	h.Bool(m.SysCtl.halted)
	h.Word32(m.SysCtl.exitCode)
	h.Word(m.SysCtl.beats)
	h.Word(m.SysCtl.appAlive)
	h.Bytes(m.UART.out)
}

// fingerprint folds the machine's complete live state into h: the
// non-DRAM micro fingerprint followed by the DRAM image as a fold of its
// per-page fingerprints (so capture, which needs the page fingerprints
// anyway, computes both stages from one pass over memory). Everything
// that can influence future execution or the run Result is covered, so a
// fingerprint match implies the remaining execution is identical to the
// golden run's.
func (m *Machine) fingerprint(h *mem.Hasher) {
	m.microFingerprint(h, false)
	foldPageFP(h, m.DRAM.HashPages(nil))
}

// foldPageFP mixes a per-page fingerprint set into h: the DRAM stage of
// the full fingerprint. captureCheckpoint must fold the identical
// sequence.
func foldPageFP(h *mem.Hasher, pageFP []uint64) {
	for _, fp := range pageFP {
		h.Word(fp)
	}
}

// Fingerprint returns the machine's current live-state fingerprint
// (test and diagnostic surface).
func (m *Machine) Fingerprint() uint64 {
	h := mem.NewHasher()
	m.fingerprint(h)
	return h.Sum()
}

// microFPSum returns just the non-DRAM fingerprint stage.
func (m *Machine) microFPSum() uint64 {
	h := mem.NewHasher()
	m.microFingerprint(h, false)
	return h.Sum()
}

// captureCheckpoint snapshots the full machine state mid-run. basePF is
// the base image's per-page fingerprints, computed once per ladder; the
// rung's own page fingerprints are diffed against it to precompute the
// exact differs-from-base page bitmap the early-exit check consumes.
// prev is the previously captured rung (nil for rung 0): page payloads
// unchanged since it are interned — byte-verified — instead of copied.
func (m *Machine) captureCheckpoint(base *Snapshot, basePF []uint64, lastBeatAbs uint64, prev *Checkpoint) *Checkpoint {
	// One hasher pass yields both stages: microFP is the running sum
	// before the DRAM page fingerprints are folded in, Fingerprint after.
	// With dirty-page tracking active (CaptureLadder arms it), only pages
	// the replay has written are re-hashed and re-diffed; unmarked pages
	// are byte-identical to the base image, exactly.
	h := mem.NewHasher()
	m.microFingerprint(h, false)
	micro := h.Sum()
	var pageFP []uint64
	if m.DRAM.Tracking(base.dram) {
		pageFP = m.DRAM.HashPagesDirty(basePF)
	} else {
		pageFP = m.DRAM.HashPages(make([]uint64, 0, len(basePF)))
	}
	foldPageFP(h, pageFP)
	diffPages := mem.DiffPageBitmap(basePF, pageFP)
	var prevImg *mem.PageImage
	if prev != nil {
		prevImg = prev.img
	}
	return &Checkpoint{
		Cycle:       m.core.Cycles(),
		Fingerprint: h.Sum(),
		microFP:     micro,
		lastBeatAbs: lastBeatAbs,
		instrs:      m.core.Instructions(),
		pageFP:      pageFP,
		diffPages:   diffPages,
		img:         m.DRAM.BuildPageImage(base.dram, pageFP, diffPages, prevImg),
		micro:       m.core.SaveMicro(),
		l1i:         m.Mem.L1I.SaveState(),
		l1d:         m.Mem.L1D.SaveState(),
		l2:          m.Mem.L2.SaveState(),
		itlb:        m.Mem.ITLB.SaveState(),
		dtlb:        m.Mem.DTLB.SaveState(),
		timer:       m.Timer.save(),
		sysc:        m.SysCtl.save(),
		uart:        m.UART.Output(),
	}
}

// RestoreCheckpoint brings the machine to the exact state of a ladder
// rung. The core micro-state is loaded first (it sets the TTBR, which
// may invalidate TLBs on change) and the TLB content after.
func (m *Machine) RestoreCheckpoint(l *Ladder, c *Checkpoint) {
	m.DRAM.RestorePages(l.base.dram, c.img)
	m.core.LoadMicro(c.micro)
	m.Mem.L1I.RestoreState(c.l1i)
	m.Mem.L1D.RestoreState(c.l1d)
	m.Mem.L2.RestoreState(c.l2)
	m.Mem.ITLB.RestoreState(c.itlb)
	m.Mem.DTLB.RestoreState(c.dtlb)
	m.Timer.restore(c.timer)
	m.SysCtl.restore(c.sysc)
	m.UART.Restore(c.uart)
}

// CaptureLadder performs the instrumented golden replay: restore the
// post-boot snapshot (warm or cold exactly as injection runs will), run
// fault-free to completion, and capture a rung at cycle zero, at every
// rung boundary reached, and at the end. max bounds the number of
// mid-run rungs (rung 0 and the end state are always kept). The capture
// loop mirrors RunWithInjection cycle-for-cycle, so Final is the same
// Result a plain golden run produces.
func (m *Machine) CaptureLadder(base *Snapshot, warm bool, every uint64, max int, budget uint64) *Ladder {
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	l := &Ladder{base: base, warm: warm, every: every}
	basePF := mem.HashPages(base.dram, nil)
	m.RestoreSnapshot(base, warm)
	// Arm dirty-page tracking for the replay: captures then hash and diff
	// only the pages the run has written (an exact, byte-level invariant —
	// unmarked pages equal the base image RestoreSnapshot just loaded).
	// Rebase (re)arms the tracker on the base image; injection runs keep
	// it armed via RestoreCheckpoint.
	m.DRAM.Rebase(base.dram)

	lastBeats := m.SysCtl.Beats()
	lastBeatAbs := uint64(0)

	l.rungs = append(l.rungs, m.captureCheckpoint(base, basePF, lastBeatAbs, nil))
	nextRung := every

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
		if abs >= nextRung && (max <= 0 || len(l.rungs) <= max) {
			// The atomic model can step several cycles at once and skip a
			// boundary; the rung lands on the first boundary actually
			// reached, and faulty runs compare only on exact hits.
			l.rungs = append(l.rungs, m.captureCheckpoint(base, basePF, lastBeatAbs, l.rungs[len(l.rungs)-1]))
			for nextRung <= abs {
				nextRung += every
			}
		}
		d := m.core.StepCycle()
		m.Timer.Tick(d)
		if b := m.SysCtl.Beats(); b != lastBeats {
			lastBeats = b
			lastBeatAbs = m.core.Cycles()
		}
	}
	l.Final = m.resultSince(base, res, lastBeatAbs)
	l.end = m.captureCheckpoint(base, basePF, lastBeatAbs, l.rungs[len(l.rungs)-1])
	return l
}

// dramConverged reports whether the machine's DRAM matches rung r of l.
// When dirty-page tracking is active against the ladder's base (always
// the case after RestoreCheckpoint), only the pages written since the
// last restore are compared — via the rung's precomputed per-page golden
// fingerprints — instead of memcmp-ing the full image; the exact
// full-image comparison remains as the fallback. With VerifyConvergence
// set, every incremental verdict is also checked against the exact one
// and a disagreement is counted in stats; the incremental verdict still
// decides, so a verified run takes exactly the path of a plain one.
func (m *Machine) dramConverged(l *Ladder, r *Checkpoint, stats *LadderStats) bool {
	if !m.DRAM.Tracking(l.base.dram) {
		return m.DRAM.EqualBasePages(l.base.dram, r.img)
	}
	inc := m.DRAM.ConvergedPages(r.diffPages, r.pageFP)
	if m.VerifyConvergence && inc != m.DRAM.EqualBasePages(l.base.dram, r.img) {
		stats.VerifyMismatches++
	}
	return inc
}

// RunLadderInjection runs one injection experiment through the ladder:
// restore the nearest rung at or below injectAt, run with the injection,
// and after the fault compare fingerprints at every rung crossing — on a
// match the rest of the run is deterministic and identical to golden, so
// the golden Final is returned immediately. A run that outlives the golden
// run is sampled for an exact state recurrence instead (see hangProof): a
// proven one can only end at the watchdog, so its Result is computed
// rather than simulated. The Result is bit-identical to RestoreSnapshot +
// RunWithInjection with the same arguments. Under VerifyConvergence a
// proven run still simulates to the watchdog, and a computed Result that
// differs from the simulated one is counted in stats.VerifyMismatches.
func (m *Machine) RunLadderInjection(l *Ladder, watchdog, injectAt uint64, inject func()) (Result, LadderStats) {
	rung := l.rungFor(injectAt)
	m.RestoreCheckpoint(l, rung)
	stats := LadderStats{FastForwarded: rung.Cycle}

	lastBeats := m.SysCtl.Beats()
	lastBeatAbs := rung.lastBeatAbs
	injected := false
	next := sort.Search(len(l.rungs), func(i int) bool { return l.rungs[i].Cycle > injectAt })
	var hang hangProof
	var proven *Result

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
		if abs >= watchdog {
			res.Outcome = OutcomeTimeout
			break
		}
		if !injected && abs >= injectAt {
			inject()
			injected = true
			// The proof compares DRAM over the pages dirtied since the
			// restore, so it needs tracking (RestoreCheckpoint arms it).
			if m.DRAM.Tracking(l.base.dram) {
				hang = m.newHangProof(l.Final.Cycles, watchdog)
			}
		}
		if injected && next < len(l.rungs) {
			for next < len(l.rungs) && l.rungs[next].Cycle < abs {
				next++ // diverged timing skipped a boundary; no comparison
			}
			if next < len(l.rungs) && l.rungs[next].Cycle == abs {
				r := l.rungs[next]
				next++
				// Staged convergence check: the cheap counters and non-DRAM
				// fingerprint first (a diverged run almost always differs
				// there), then the DRAM comparison — incremental over dirty
				// pages when tracking is active, exact base+image memcmp
				// otherwise.
				if lastBeatAbs == r.lastBeatAbs && m.core.Instructions() == r.instrs &&
					m.microFPSum() == r.microFP && m.dramConverged(l, r, &stats) {
					stats.EarlyExit = true
					stats.TailSaved = l.Final.Cycles - abs
					stats.ConvergedAt = abs
					return l.Final, stats
				}
				if stats.DivergedAt == 0 {
					stats.DivergedAt = abs
				}
			}
		}
		if hang.on && abs >= hang.due && hang.observe(m, abs) {
			// The state recurs exactly: the run can only time out.
			ext := m.resultSince(l.base, Result{Outcome: OutcomeTimeout}, lastBeatAbs)
			ext.Cycles, ext.Instructions = extrapolateHang(&hang, m)
			stats.HangProved = true
			stats.ProvedAt = abs
			stats.HangPeriod = hang.period
			if !m.VerifyConvergence {
				stats.TailSaved = ext.Cycles - abs
				return ext, stats
			}
			proven, hang.on = &ext, false
		}
		d := m.core.StepCycle()
		m.Timer.Tick(d)
		if b := m.SysCtl.Beats(); b != lastBeats {
			lastBeats = b
			lastBeatAbs = m.core.Cycles()
		}
	}
	if !injected {
		// The run ended before the injection time; apply it so component
		// state still carries it (mirrors RunWithInjection).
		inject()
	}
	res = m.resultSince(l.base, res, lastBeatAbs)
	if proven != nil && !reflect.DeepEqual(*proven, res) {
		stats.VerifyMismatches++
	}
	return res, stats
}

// resultSince completes res (whose outcome and exit code are the
// caller's) with the counters of a run from the base snapshot to the
// machine's current state — the one Result assembly of every loop that
// runs from a restored base: ladder capture, liveness replay and ladder
// injection runs.
func (m *Machine) resultSince(base *Snapshot, res Result, lastBeatAbs uint64) Result {
	res.Cycles = m.core.Cycles()
	res.Instructions = m.core.Instructions()
	res.Output = m.UART.Tail(len(base.uart))
	res.Beats = m.SysCtl.Beats() - base.sysctl.s.beats
	res.AppAlive = m.SysCtl.AppAlive() - base.sysctl.s.appAlive
	res.LastBeatCycle = lastBeatAbs
	return res
}

// FastForwardGolden replaces a fault-free full run: it restores the
// machine to the exact end state of the golden capture run and returns
// the golden Result. The beam simulator uses it for the steady-state and
// reboot runs of its strike chains, whose live-board semantics allow no
// other reordering.
func (m *Machine) FastForwardGolden(l *Ladder) Result {
	m.RestoreCheckpoint(l, l.end)
	return l.Final
}
