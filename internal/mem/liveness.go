// Liveness recorder for the ACE-style campaign pre-filter: during one
// instrumented golden replay it records, per cache way / TLB entry, the
// chronological event stream (covering reads, covering writes, refills,
// evictions) and the generation history (which value occupied the slot
// over which stamp interval, and at what physical address). A planned
// injection can then be classified *without simulating it*: if the first
// post-flip event covering the struck byte is a write, the fault is
// provably overwritten; a clean eviction provably discards it; no event at
// all leaves it latent; an invalid slot at the flip instant was never
// read. Any covering read — or a dirty eviction, which migrates the
// corruption down the hierarchy — leaves the verdict undecided and the
// fault goes to the simulator.
//
// Beside the event stream each way keeps a running line-granular ACE
// lifetime summary, from which the same replay yields the classic
// single-simulation AVF estimate (ace.Run) — one recorder per array
// serves both analyses.
//
// Stamps are the replay loop's top-of-loop cycle values (the loop sets
// *clock before each StepCycle), the same instants at which the injection
// loops fire inject(). An injection at cycle F therefore lands before
// every event stamped >= F and after every event stamped < F, exactly;
// no guard band is needed.
package mem

import (
	"math"
	"sort"
)

// LiveVerdict is the pre-filter's classification of one planned injection.
type LiveVerdict uint8

// Pre-filter verdicts. All decided verdicts imply a Masked outcome: the
// corrupted bits provably never influence execution, so the run is
// byte-identical to golden.
const (
	// LiveUndecided: the analysis cannot prove masking (a covering read,
	// a dirty eviction, an unpredictable bit, or event overflow); the
	// fault must be simulated.
	LiveUndecided LiveVerdict = iota
	// LiveNeverRead: the slot held no valid content at the flip instant.
	LiveNeverRead
	// LiveOverwritten: a write (or full refill) replaced the corrupted
	// byte before anything read it.
	LiveOverwritten
	// LiveEvictedClean: the corrupted line/entry was dropped without
	// writeback before any covering read.
	LiveEvictedClean
	// LiveLatent: no event ever touched the corrupted byte again; the
	// corruption sits unread in the array when the run ends.
	LiveLatent
)

// LiveQuery is the result of classifying one bit/cycle against the log.
type LiveQuery struct {
	Verdict LiveVerdict
	// Valid reports whether the slot held live content at the flip
	// instant (mirrors fault.Context.LineValid).
	Valid bool
	// LineAddr is the physical address of the struck line's content at
	// the flip instant (caches only, valid slots only) — the input to
	// kernel-ownership classification.
	LineAddr uint32
}

// Event kinds of the per-way stream.
const (
	liveRead       uint8 = iota // covering read of [lo, hi)
	liveWrite                   // covering write of [lo, hi)
	liveFill                    // full refill: a new generation begins
	liveEvictClean              // content dropped without writeback
	liveEvictDirty              // dirty writeback: content migrated below
)

// liveEvent is one recorded event; lo/hi bound the covered byte range
// within the line ([0, lineBytes) for whole-slot events).
type liveEvent struct {
	stamp  uint64
	lo, hi uint16
	kind   uint8
}

// liveGen is one value generation of a slot: content installed at stamp
// birth (-1 for content already present when recording started), cleared
// at stamp death (MaxUint64 while still live), holding the line at addr.
type liveGen struct {
	birth int64
	death uint64
	addr  uint32
}

// liveEventCap bounds the per-way event list. A way hot enough to
// overflow it is read near-continuously, so its faults would classify
// undecided anyway; overflow just makes that conservative answer
// explicit.
const liveEventCap = 16384

// liveWay is the recording of one cache way or TLB entry.
type liveWay struct {
	events   []liveEvent
	gens     []liveGen
	overflow bool
	span     liveSpan
}

// liveSpan is a way's running line-granular ACE lifetime summary
// (Mukherjee et al.): every bit of the way shares the lifetime of the
// value it holds, from the fill or write that opened it to its last
// consuming read, or to its departure if it leaves dirty. Values are
// counted from the first fill or write after recording starts; content
// already present at attach time is not one. ACE time starts at stamp+1,
// the first cycle at which an injection hits the new value.
type liveSpan struct {
	open, dirty, read bool
	birth, lastRead   uint64

	aceCycles, values, valuesRead uint64
}

func (s *liveSpan) note(at uint64, kind uint8) {
	switch kind {
	case liveRead:
		if s.open {
			if !s.read {
				s.read = true
				s.valuesRead++
			}
			s.lastRead = at
		}
	case liveWrite, liveFill:
		s.close(at, false)
		s.open, s.dirty, s.read, s.birth = true, kind == liveWrite, false, at
		s.values++
	case liveEvictClean:
		s.close(at, false)
	case liveEvictDirty:
		s.close(at, true)
	}
}

// close ends the current value's lifetime at cycle at: a value leaving
// by writeback stays ACE until it departs, any other value until its
// last read.
func (s *liveSpan) close(at uint64, writeback bool) {
	if !s.open {
		return
	}
	switch {
	case writeback && s.dirty:
		s.aceCycles += at - s.birth
	case s.read:
		s.aceCycles += s.lastRead - s.birth
	}
	s.open = false
}

func (w *liveWay) note(stamp uint64, kind uint8, lo, hi uint16) {
	// The lifetime summary needs no event list, so it stays exact on
	// ways hot enough to overflow one.
	w.span.note(stamp+1, kind)
	if w.overflow {
		return
	}
	if len(w.events) >= liveEventCap {
		w.overflow = true
		return
	}
	w.events = append(w.events, liveEvent{stamp: stamp, kind: kind, lo: lo, hi: hi})
}

func (w *liveWay) open(stamp int64, addr uint32) {
	w.gens = append(w.gens, liveGen{birth: stamp, death: math.MaxUint64, addr: addr})
}

func (w *liveWay) close(stamp uint64) {
	if n := len(w.gens); n > 0 && w.gens[n-1].death == math.MaxUint64 {
		w.gens[n-1].death = stamp
	}
}

// query classifies a flip of byteOff at cycle flipAt against the way's
// recording. Shared by the cache and TLB paths: only the event kinds each
// recorder emits differ.
func (w *liveWay) query(byteOff uint16, flipAt uint64) LiveQuery {
	if w.overflow {
		return LiveQuery{}
	}
	// The generation live at the flip: born strictly before it, cleared
	// at or after it (a clearing event stamped == flipAt runs after the
	// injection fires, so the flip still hits this generation).
	gi := sort.Search(len(w.gens), func(i int) bool { return w.gens[i].birth >= int64(flipAt) }) - 1
	if gi < 0 || flipAt > w.gens[gi].death {
		return LiveQuery{Verdict: LiveNeverRead}
	}
	gen := w.gens[gi]
	q := LiveQuery{Valid: true, LineAddr: gen.addr}
	ei := sort.Search(len(w.events), func(i int) bool { return w.events[i].stamp >= flipAt })
	for ; ei < len(w.events); ei++ {
		ev := w.events[ei]
		covers := ev.lo <= byteOff && byteOff < ev.hi
		switch ev.kind {
		case liveRead:
			if covers {
				return q // consumed: undecided
			}
		case liveWrite:
			if covers {
				q.Verdict = LiveOverwritten
				return q
			}
		case liveFill:
			// The generation's own death event always precedes its
			// slot's refill, so this is defensive — and a full refill
			// overwrites every byte regardless.
			q.Verdict = LiveOverwritten
			return q
		case liveEvictClean:
			q.Verdict = LiveEvictedClean
			return q
		case liveEvictDirty:
			return q // corruption migrated below: undecided
		}
	}
	q.Verdict = LiveLatent
	return q
}

// windowOf returns the index of the inter-event quiescent window that
// contains flipAt for byteOff — the count of covering events stamped
// strictly before the flip, so two flips share a window exactly when no
// covering event separates them — plus an FNV-1a fingerprint of the
// site's full covering-event sequence and generation history. Two flips
// of the same site in the same window are provably equivalent: the
// machine evolves identically up to the first covering event at or after
// either flip, at which instant its state is golden-plus-flip in both
// cases. ok is false when the recording overflowed (window membership
// would be a guess).
func (w *liveWay) windowOf(byteOff uint16, flipAt uint64) (win int, sig uint64, ok bool) {
	if w.overflow {
		return 0, 0, false
	}
	sig = sigInit
	for _, ev := range w.events {
		if ev.lo > byteOff || byteOff >= ev.hi {
			continue
		}
		if ev.stamp < flipAt {
			win++
		}
		sig = sigFold(sig, ev.stamp, uint64(ev.kind)<<32|uint64(ev.lo)<<16|uint64(ev.hi))
	}
	for _, g := range w.gens {
		sig = sigFold(sig, uint64(g.birth), g.death^uint64(g.addr))
	}
	return win, sig, true
}

// enumWindows walks byteOff's quiescent windows over cycles [0, maxCycle):
// fn receives each non-empty window's first cycle and width in cycles.
// The windows tile [0, maxCycle) exactly (zero-width windows from
// duplicate event stamps are skipped), so Σ width == maxCycle — the
// invariant an exhaustive sweep's population-exact accounting rests on.
// ok is false (fn never called) when the recording overflowed.
func (w *liveWay) enumWindows(byteOff uint16, maxCycle uint64, fn func(start, width uint64)) bool {
	if w.overflow {
		return false
	}
	start := uint64(0)
	for _, ev := range w.events {
		if ev.lo > byteOff || byteOff >= ev.hi {
			continue
		}
		// The window ends at the event's stamp inclusive: an injection at
		// cycle F lands before every event stamped >= F, so flips at the
		// stamp itself still precede the event.
		end := ev.stamp + 1
		if end > maxCycle {
			end = maxCycle
		}
		if end > start {
			fn(start, end-start)
			start = end
		}
	}
	if maxCycle > start {
		fn(start, maxCycle-start)
	}
	return true
}

// Lifetimes is one structure's ACE lifetime summary over a recording,
// the single-simulation AVF estimate of the paper's Section II. Because
// all bits of a line share its value's lifetime, the estimate
// over-estimates against fault injection (Wang et al.).
type Lifetimes struct {
	// ACECycles sums the entry-cycles during which values mattered.
	ACECycles uint64
	// Values counts the value lifetimes opened (fills and writes) and
	// ValuesRead those read at least once.
	Values, ValuesRead uint64
	// Entries is the structure's line or TLB-entry count.
	Entries int
}

// lifetimes totals the ways' summaries, closing every value still live
// at cycle end (dirty ones count as ACE to the end: they would be
// written back).
func lifetimes(ways []liveWay, end uint64) Lifetimes {
	l := Lifetimes{Entries: len(ways)}
	for i := range ways {
		s := ways[i].span
		s.close(end, s.dirty)
		l.ACECycles += s.aceCycles
		l.Values += s.values
		l.ValuesRead += s.valuesRead
	}
	return l
}

// AVF returns the ACE estimate: ACECycles / (Entries x window).
func (l Lifetimes) AVF(window uint64) float64 {
	if window == 0 || l.Entries == 0 {
		return 0
	}
	return float64(l.ACECycles) / (float64(window) * float64(l.Entries))
}

// sigInit/sigFold are the FNV-1a fingerprint the window signature uses.
const sigInit = uint64(1469598103934665603)

func sigFold(h, a, b uint64) uint64 {
	for _, v := range [2]uint64{a, b} {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// --- Cache recorder --------------------------------------------------------

// CacheLiveness records the liveness log of one cache during a golden
// replay. Attach with AttachLiveness before the replay, detach after; the
// recorder is then an immutable query structure shared by all workers.
type CacheLiveness struct {
	clock     *uint64
	ways      []liveWay // set-major, way-minor
	nways     int
	sets      uint64
	lineBytes uint64
}

// AttachLiveness instruments the cache with liveness recording. clock
// points at the replay loop's top-of-loop cycle stamp. Content valid at
// attach time is seeded as generations with birth -1 (live from before
// recording started).
func (c *Cache) AttachLiveness(clock *uint64) *CacheLiveness {
	r := &CacheLiveness{
		clock:     clock,
		ways:      make([]liveWay, int(c.sets)*c.cfg.Ways),
		nways:     c.cfg.Ways,
		sets:      uint64(c.sets),
		lineBytes: uint64(c.cfg.LineBytes),
	}
	for s := range c.lines {
		for w := range c.lines[s] {
			if c.lines[s][w].valid {
				r.ways[s*c.cfg.Ways+w].open(-1, c.lineAddr(c.lines[s][w].tag, uint32(s)))
			}
		}
	}
	c.rec = r
	return r
}

// DetachLiveness stops recording; the returned log stays queryable.
func (c *Cache) DetachLiveness() { c.rec = nil }

func (r *CacheLiveness) evict(set uint32, way int, dirty bool) {
	w := &r.ways[int(set)*r.nways+way]
	kind := liveEvictClean
	if dirty {
		kind = liveEvictDirty
	}
	w.note(*r.clock, kind, 0, uint16(r.lineBytes))
	w.close(*r.clock)
}

func (r *CacheLiveness) fill(set uint32, way int, addr uint32) {
	w := &r.ways[int(set)*r.nways+way]
	w.note(*r.clock, liveFill, 0, uint16(r.lineBytes))
	w.open(int64(*r.clock), addr)
}

func (r *CacheLiveness) access(set uint32, way int, off, n uint32, write bool) {
	kind := liveRead
	if write {
		kind = liveWrite
	}
	r.ways[int(set)*r.nways+way].note(*r.clock, kind, uint16(off), uint16(off+n))
}

// QueryBit classifies a data-array flip (FlipDataBit addressing) at cycle
// flipAt against the recording.
func (r *CacheLiveness) QueryBit(bit uint64, flipAt uint64) LiveQuery {
	lineBits := r.lineBytes * 8
	wayBits := lineBits * uint64(r.nways)
	set := bit / wayBits % r.sets
	way := bit % wayBits / lineBits
	byteOff := uint16(bit % lineBits / 8)
	return r.ways[set*uint64(r.nways)+way].query(byteOff, flipAt)
}

// WindowOf returns the quiescent-window index containing flipAt for a
// data-array bit, with the struck byte's covering-event fingerprint. Two
// flips of the same bit are outcome-equivalent iff they share (window,
// sig); ok is false when the way's recording overflowed.
func (r *CacheLiveness) WindowOf(bit, flipAt uint64) (window int, sig uint64, ok bool) {
	lineBits := r.lineBytes * 8
	wayBits := lineBits * uint64(r.nways)
	set := bit / wayBits % r.sets
	way := bit % wayBits / lineBits
	byteOff := uint16(bit % lineBits / 8)
	return r.ways[set*uint64(r.nways)+way].windowOf(byteOff, flipAt)
}

// EnumWindows walks a data-array bit's quiescent windows over cycles
// [0, maxCycle): fn receives each window's first cycle and width, tiling
// the cycle range exactly. Returns false (fn never called) when the
// way's recording overflowed.
func (r *CacheLiveness) EnumWindows(bit, maxCycle uint64, fn func(start, width uint64)) bool {
	lineBits := r.lineBytes * 8
	wayBits := lineBits * uint64(r.nways)
	set := bit / wayBits % r.sets
	way := bit % wayBits / lineBits
	byteOff := uint16(bit % lineBits / 8)
	return r.ways[set*uint64(r.nways)+way].enumWindows(byteOff, maxCycle, fn)
}

// Lifetimes returns the cache's ACE lifetime summary, closing the values
// still live at cycle end.
func (r *CacheLiveness) Lifetimes(end uint64) Lifetimes { return lifetimes(r.ways, end) }

// Overflowed reports how many ways hit the event cap (diagnostics: their
// faults classify undecided).
func (r *CacheLiveness) Overflowed() int {
	n := 0
	for i := range r.ways {
		if r.ways[i].overflow {
			n++
		}
	}
	return n
}

// --- TLB recorder ----------------------------------------------------------

// TLBLiveness records the liveness log of one TLB during a golden replay.
type TLBLiveness struct {
	clock   *uint64
	ways    []liveWay // one per entry
	entries uint64
}

// AttachLiveness instruments the TLB with liveness recording; see
// Cache.AttachLiveness.
func (t *TLB) AttachLiveness(clock *uint64) *TLBLiveness {
	r := &TLBLiveness{clock: clock, ways: make([]liveWay, len(t.entries)), entries: uint64(len(t.entries))}
	for i := range t.entries {
		if t.entries[i].Valid() {
			r.ways[i].open(-1, 0)
		}
	}
	t.rec = r
	return r
}

// DetachLiveness stops recording; the returned log stays queryable.
func (t *TLB) DetachLiveness() { t.rec = nil }

func (r *TLBLiveness) read(i int) {
	r.ways[i].note(*r.clock, liveRead, 0, TLBEntryBits)
}

func (r *TLBLiveness) insert(i int) {
	w := &r.ways[i]
	w.note(*r.clock, liveFill, 0, TLBEntryBits)
	w.close(*r.clock)
	w.open(int64(*r.clock), 0)
}

func (r *TLBLiveness) invalidate(i int) {
	w := &r.ways[i]
	w.note(*r.clock, liveEvictClean, 0, TLBEntryBits)
	w.close(*r.clock)
}

// QueryBit classifies a TLB flip (FlipBit addressing) at cycle flipAt.
// Only bits of the physical page and permission fields (PPN, user,
// writable) are predictable: they never influence Lookup's match — a hit
// that returns the entry is a consuming read the scan sees. Flips of the
// VPN field or the valid bit change *which* entries match, which the
// event stream cannot model, so they classify undecided unconditionally.
func (r *TLBLiveness) QueryBit(bit uint64, flipAt uint64) LiveQuery {
	b := bit % TLBEntryBits
	if b < tlbPPNShift || b >= tlbValidBit {
		return LiveQuery{}
	}
	idx := bit / TLBEntryBits % r.entries
	q := r.ways[idx].query(uint16(b), flipAt)
	q.LineAddr = 0 // TLB entries carry no owning line address
	return q
}

// WindowOf returns the quiescent-window index containing flipAt for a
// TLB entry bit, with the entry's covering-event fingerprint. Like
// QueryBit, only the physical-page/permission bits are modelable — a
// VPN or valid-bit flip changes which entries match, which the event
// stream cannot express — so ok is false for any other bit, and for
// overflowed recordings.
func (r *TLBLiveness) WindowOf(bit, flipAt uint64) (window int, sig uint64, ok bool) {
	b := bit % TLBEntryBits
	if b < tlbPPNShift || b >= tlbValidBit {
		return 0, 0, false
	}
	idx := bit / TLBEntryBits % r.entries
	return r.ways[idx].windowOf(uint16(b), flipAt)
}

// EnumWindows walks a TLB entry bit's quiescent windows over cycles
// [0, maxCycle); see CacheLiveness.EnumWindows. False for unmodelable
// bits (outside the physical-page/permission region) and overflowed
// recordings.
func (r *TLBLiveness) EnumWindows(bit, maxCycle uint64, fn func(start, width uint64)) bool {
	b := bit % TLBEntryBits
	if b < tlbPPNShift || b >= tlbValidBit {
		return false
	}
	idx := bit / TLBEntryBits % r.entries
	return r.ways[idx].enumWindows(uint16(b), maxCycle, fn)
}

// Lifetimes returns the TLB's ACE lifetime summary; see
// CacheLiveness.Lifetimes.
func (r *TLBLiveness) Lifetimes(end uint64) Lifetimes { return lifetimes(r.ways, end) }

// Overflowed reports how many entries hit the event cap.
func (r *TLBLiveness) Overflowed() int {
	n := 0
	for i := range r.ways {
		if r.ways[i].overflow {
			n++
		}
	}
	return n
}
