package cpu

import (
	"armsefi/internal/isa"
	"armsefi/internal/mem"
)

// DetailedConfig sizes the out-of-order core. Zero fields take Cortex-A9-
// flavoured defaults.
type DetailedConfig struct {
	Width            int // fetch/rename/commit width
	ROBSize          int
	IQSize           int
	PhysRegs         int // physical register file entries (the injection target)
	FetchQueue       int
	BTBEntries       int
	PredictorEntries int
}

func (c DetailedConfig) withDefaults() DetailedConfig {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.Width, 2)
	def(&c.ROBSize, 40)
	def(&c.IQSize, 16)
	def(&c.PhysRegs, 56)
	def(&c.FetchQueue, 8)
	def(&c.BTBEntries, 512)
	def(&c.PredictorEntries, 1024)
	return c
}

// flagsArch is the rename-map index of the NZCV flags, treated as a 17th
// architectural register so that flag-setting instructions rename like any
// other producer.
const flagsArch = isa.NumRegs

const numArch = isa.NumRegs + 1

// uopState tracks a micro-op through the backend.
type uopState uint8

const (
	uopDispatched uopState = 1 + iota
	uopExecuting
	uopDone
)

// uop is one in-flight instruction.
type uop struct {
	in  isa.Instruction
	pc  uint32
	seq uint64
	// info points into isa's read-only opcode table (or at the shared
	// zero entry for exception uops); it is never mutated or hashed —
	// in.Encode() already pins everything it derives from.
	info *isa.OpInfo

	// Renamed operands; -1 means unused.
	srcRn, srcOp2, srcRd, srcFlags int
	dst, dstFlags                  int // allocated physical destinations
	oldDst, oldDstFlags            int // previous mappings, freed at commit

	state  uopState
	doneAt uint64

	value    uint32
	flags    isa.Flags
	setFlags bool

	isBranch   bool
	predTaken  bool
	predTarget uint32
	taken      bool
	target     uint32
	mispredict bool
	writesPC   bool

	isStore   bool
	loadLat   int
	addrReady bool
	storeAddr uint32
	storeSize uint32
	storeVal  uint32

	hasExc bool
	exc    isa.Vector
	excRet uint32

	serialized bool
	condFail   bool

	// taintRead marks a uop that consumed a tainted physical register
	// (provenance probe). Deliberately not hashed by hashUop: the probe is
	// observational, and fingerprints must match with the probe on or off.
	taintRead bool
}

// physReg is one physical register file entry. The value array is the
// "Physical Register file" injection target of the paper's Figure 4.
type physReg struct {
	value uint32
	ready bool
}

// uopRing is a fixed-capacity FIFO over a power-of-two circular buffer.
// The fetch queue and ROB are bounded by config, so after LoadArch the
// ring never grows: pushes and pops are masked index arithmetic with no
// slice reallocation, unlike the `q = q[1:]` + append rolling-slice
// pattern, whose backing array walks forward and forces a fresh
// allocation every few hundred cycles.
type uopRing struct {
	buf  []*uop
	head int
	n    int
}

func (r *uopRing) init(capacity int) {
	size := 1
	for size < capacity {
		size <<= 1
	}
	if len(r.buf) != size {
		r.buf = make([]*uop, size)
	}
	r.head, r.n = 0, 0
}

func (r *uopRing) len() int      { return r.n }
func (r *uopRing) at(i int) *uop { return r.buf[(r.head+i)&(len(r.buf)-1)] }
func (r *uopRing) front() *uop   { return r.buf[r.head] }

func (r *uopRing) push(u *uop) {
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = u
	r.n++
}

func (r *uopRing) pop() *uop {
	u := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return u
}

func (r *uopRing) clear() { r.head, r.n = 0, 0 }

// btbEntry is one branch-target-buffer slot.
type btbEntry struct {
	valid  bool
	tag    uint32
	target uint32
}

// fu models one functional unit's occupancy.
type fu struct {
	kind      isa.FU
	busyUntil uint64
}

// Detailed is the cycle-approximate out-of-order core: speculative fetch
// with a 2-bit/BTB predictor, register renaming over a physical register
// file, a reorder buffer with in-order commit and precise exceptions,
// out-of-order issue, store buffering with store-to-load forwarding, and
// commit-time misprediction recovery.
type Detailed struct {
	mem *mem.System
	irq IRQLine
	cfg DetailedConfig

	cycle uint64
	seq   uint64

	// Committed architectural state.
	commitPC uint32
	mode     isa.Mode
	irqOff   bool
	vbar     uint32
	spBank   [3]uint32
	elr      [3]uint32
	spsr     [3]isa.CPSR
	fatal    bool
	wfi      bool

	prf       []physReg
	renameMap [numArch]int
	archMap   [numArch]int
	freeList  []int

	fetchPC    uint32
	fetchStall uint64 // no fetch until this cycle (I$ miss modelling)
	fetchHalt  bool   // stop fetching until the next redirect (exception/serialise)
	fetchQ     uopRing

	rob            uopRing
	iq             []*uop
	executing      []*uop
	fus            []fu
	serializeBlock bool
	commitStall    uint64

	predictor []uint8 // 2-bit counters
	btb       []btbEntry

	instrs       uint64
	branchMisses uint64
	squashed     uint64

	uopPool  []*uop
	decTags  []uint32
	decOps   []isa.Instruction
	hashFree []bool // HashMicro scratch: free-list membership, reused across calls

	// Propagation provenance taint: the physical register holding an
	// injected bit. taintProbe goes nil once the value is overwritten;
	// commitProbe survives until disarm so uops that consumed the
	// corruption can still report their architectural commit.
	taintProbe  *mem.Probe
	commitProbe *mem.Probe
	taintReg    int
}

var _ Core = (*Detailed)(nil)

// NewDetailed builds the out-of-order core over a memory system.
func NewDetailed(m *mem.System, irq IRQLine, cfg DetailedConfig) *Detailed {
	c := &Detailed{mem: m, irq: irq, cfg: cfg.withDefaults()}
	c.Reset()
	return c
}

// Reset implements Core.
func (c *Detailed) Reset() {
	cfg := c.cfg
	c.LoadArch(ArchState{Mode: isa.ModeSVC, IRQOff: true})
	c.predictor = make([]uint8, cfg.PredictorEntries)
	c.btb = make([]btbEntry, cfg.BTBEntries)
	c.fus = []fu{
		{kind: isa.FUAlu}, {kind: isa.FUAlu},
		{kind: isa.FUMul}, {kind: isa.FUFpu},
		{kind: isa.FUMem}, {kind: isa.FUBr}, {kind: isa.FUSys},
	}
}

// LoadArch installs committed architectural state into a fresh pipeline.
func (c *Detailed) LoadArch(st ArchState) {
	if c.taintProbe != nil {
		// An architectural reload wipes the whole register file. This is a
		// live-board event on the beam's restart path; fault-injection runs
		// disarm before any restore, so the hook never fires there.
		c.taintProbe.NoteOverwrite("prf")
		c.taintProbe = nil
	}
	cfg := c.cfg
	if len(c.prf) == cfg.PhysRegs {
		for i := range c.prf {
			c.prf[i] = physReg{}
		}
	} else {
		c.prf = make([]physReg, cfg.PhysRegs)
	}
	if len(c.decTags) == 0 {
		c.decTags = make([]uint32, 4096)
		c.decOps = make([]isa.Instruction, 4096)
		for i := range c.decTags {
			// 0xFFFFFFFF is safe as the empty sentinel: it decodes to an
			// invalid op, exactly what the zero Instruction in decOps says.
			c.decTags[i] = 0xFFFFFFFF
		}
	}
	if cap(c.freeList) < cfg.PhysRegs {
		c.freeList = make([]int, 0, cfg.PhysRegs)
	}
	c.freeList = c.freeList[:0]
	for i := numArch; i < cfg.PhysRegs; i++ {
		c.freeList = append(c.freeList, i)
	}
	for i := 0; i < numArch; i++ {
		c.archMap[i] = i
		c.renameMap[i] = i
		c.prf[i].ready = true
	}
	for r := 0; r < isa.NumRegs; r++ {
		c.prf[c.archMap[r]].value = st.Regs[r]
	}
	c.prf[c.archMap[flagsArch]].value = packFlags(st.Flags)
	c.commitPC = st.PC
	c.fetchPC = st.PC
	c.mode = st.Mode
	c.irqOff = st.IRQOff
	c.vbar = st.VBAR
	c.spBank = st.SPBank
	c.elr = st.ELR
	c.spsr = st.SPSR
	c.mem.SetTTBR(st.TTBR)
	c.fatal = false
	c.wfi = false
	c.fetchHalt = false
	c.fetchStall = 0
	// Recycle any in-flight uops before clearing the queues, then top the
	// pool up to the maximum live population (ROB + fetch queue; issue
	// queue and executing entries alias ROB ones). After this, the cycle
	// loop never needs a fresh heap allocation: every alloc is a pool pop.
	for i := 0; i < c.fetchQ.len(); i++ {
		c.recycleUop(c.fetchQ.at(i))
	}
	for i := 0; i < c.rob.len(); i++ {
		c.recycleUop(c.rob.at(i))
	}
	c.fetchQ.init(cfg.FetchQueue)
	c.rob.init(cfg.ROBSize)
	maxLive := cfg.ROBSize + cfg.FetchQueue
	if cap(c.uopPool) < maxLive {
		pool := make([]*uop, 0, maxLive+8)
		c.uopPool = append(pool, c.uopPool...)
	}
	for len(c.uopPool) < maxLive {
		c.uopPool = append(c.uopPool, new(uop))
	}
	if cap(c.iq) < cfg.IQSize {
		c.iq = make([]*uop, 0, cfg.IQSize)
	}
	if cap(c.executing) < cfg.ROBSize {
		c.executing = make([]*uop, 0, cfg.ROBSize)
	}
	c.iq = c.iq[:0]
	c.executing = c.executing[:0]
	c.serializeBlock = false
	c.commitStall = 0
	c.cycle = 0
	c.instrs = 0
	c.branchMisses = 0
	c.squashed = 0
	for i := range c.fus {
		c.fus[i].busyUntil = 0
	}
	// Clear prediction state so checkpoint-restored runs are cycle-exact
	// replicas of each other, as gem5 checkpoint restores are.
	for i := range c.predictor {
		c.predictor[i] = 0
	}
	for i := range c.btb {
		c.btb[i] = btbEntry{}
	}
}

// SaveArch captures committed state. Call only at a quiescent point (empty
// pipeline), e.g. right after boot convergence or a flush.
func (c *Detailed) SaveArch() ArchState {
	st := ArchState{
		PC:     c.commitPC,
		Flags:  unpackFlags(c.prf[c.archMap[flagsArch]].value),
		Mode:   c.mode,
		IRQOff: c.irqOff,
		VBAR:   c.vbar,
		SPBank: c.spBank,
		ELR:    c.elr,
		SPSR:   c.spsr,
		TTBR:   c.mem.TTBR(),
	}
	for r := 0; r < isa.NumRegs; r++ {
		st.Regs[r] = c.prf[c.archMap[r]].value
	}
	return st
}

// Cycles implements Core.
func (c *Detailed) Cycles() uint64 { return c.cycle }

// Instructions implements Core.
func (c *Detailed) Instructions() uint64 { return c.instrs }

// Fatal implements Core.
func (c *Detailed) Fatal() bool { return c.fatal }

// Mode implements Core.
func (c *Detailed) Mode() isa.Mode { return c.mode }

// PC implements Core: the committed program counter.
func (c *Detailed) PC() uint32 { return c.commitPC }

// Reg implements Core: committed register value.
func (c *Detailed) Reg(r isa.Reg) uint32 { return c.prf[c.archMap[r]].value }

// RegFileBits implements Core: the physical register file is the injection
// surface, as in GeFIN.
func (c *Detailed) RegFileBits() uint64 { return uint64(c.cfg.PhysRegs) * 32 }

// FlipRegFileBit implements Core.
func (c *Detailed) FlipRegFileBit(bit uint64) {
	bit %= c.RegFileBits()
	c.prf[bit/32].value ^= 1 << (bit % 32)
}

// TaintRegBit marks the physical register holding a linearly-addressed bit
// (same addressing as FlipRegFileBit) as tainted and arms the probe. The
// register is live when it is not on the free list: free registers'
// values are dead by construction (alloc clears ready, writeback stores
// before any read).
func (c *Detailed) TaintRegBit(bit uint64, p *mem.Probe) {
	bit %= c.RegFileBits()
	reg := int(bit / 32)
	live := true
	for _, f := range c.freeList {
		if f == reg {
			live = false
			break
		}
	}
	c.taintProbe = p
	c.commitProbe = p
	c.taintReg = reg
	p.Arm(live)
}

// Tainted reports whether the core still tracks a provenance taint: a
// tainted register, or uops that consumed one and may yet commit.
func (c *Detailed) Tainted() bool { return c.taintProbe != nil || c.commitProbe != nil }

// ClearRegTaint drops any tracked register taint without emitting an event.
func (c *Detailed) ClearRegTaint() {
	c.taintProbe = nil
	c.commitProbe = nil
	c.taintReg = 0
}

// notePhysRead reports a consuming read of the tainted physical register.
func (c *Detailed) notePhysRead(idx int, pc uint32, reg string) {
	if c.taintProbe != nil && idx == c.taintReg {
		c.taintProbe.NoteReadReg("prf", pc, reg)
	}
}

// notePhysWrite reports that a write killed the tainted register's value.
// The commit probe stays attached: an earlier consumer may still retire.
func (c *Detailed) notePhysWrite(idx int) {
	if c.taintProbe != nil && idx == c.taintReg {
		c.taintProbe.NoteOverwrite("prf")
		c.taintProbe = nil
	}
}

// SquashedUops returns how many speculative uops were discarded; exposed
// for pipeline tests.
func (c *Detailed) SquashedUops() uint64 { return c.squashed }

// Counters implements Core.
func (c *Detailed) Counters() Counters {
	return Counters{
		Cycles:       c.cycle,
		Instructions: c.instrs,
		BranchMisses: c.branchMisses,
		L1DAccesses:  c.mem.L1D.Stats().Accesses(),
		L1DMisses:    c.mem.L1D.Stats().Misses,
		DTLBMisses:   c.mem.DTLB.Stats().Misses,
		L1IMisses:    c.mem.L1I.Stats().Misses,
		ITLBMisses:   c.mem.ITLB.Stats().Misses,
	}
}

func packFlags(f isa.Flags) uint32 {
	var v uint32
	if f.N {
		v |= 1
	}
	if f.Z {
		v |= 2
	}
	if f.C {
		v |= 4
	}
	if f.V {
		v |= 8
	}
	return v
}

func unpackFlags(v uint32) isa.Flags {
	return isa.Flags{N: v&1 != 0, Z: v&2 != 0, C: v&4 != 0, V: v&8 != 0}
}

// StepCycle implements Core: advances the pipeline by one cycle.
func (c *Detailed) StepCycle() int {
	if c.fatal {
		c.cycle++
		return 1
	}
	c.cycle++
	if c.wfi {
		if !c.irqOff && c.irq.Pending() {
			c.wfi = false
			c.takeException(isa.VecIRQ, c.commitPC)
		}
		return 1
	}
	c.commit()
	if c.fatal {
		return 1
	}
	c.writeback()
	c.issue()
	c.dispatch()
	c.fetch()
	return 1
}

// ---------------------------------------------------------------- fetch ---

func (c *Detailed) predictorIdx(pc uint32) int {
	return int(pc>>2) & (len(c.predictor) - 1)
}

func (c *Detailed) btbIdx(pc uint32) int {
	return int(pc>>2) & (len(c.btb) - 1)
}

func (c *Detailed) fetch() {
	if c.fetchHalt || c.cycle < c.fetchStall {
		return
	}
	l1iHit := c.mem.L1I.HitCycles()
	for n := 0; n < c.cfg.Width; n++ {
		if c.fetchQ.len() >= c.cfg.FetchQueue {
			return
		}
		word, lat, fault := c.mem.FetchInstr(c.fetchPC, c.mode)
		if lat > l1iHit {
			c.fetchStall = c.cycle + uint64(lat)
		}
		u := c.allocUop()
		u.pc = c.fetchPC
		u.seq = c.nextSeq()
		if fault != nil {
			u.hasExc = true
			u.exc = isa.VecPrefetchAbort
			u.excRet = c.fetchPC
			u.state = uopDone
			c.fetchQ.push(u)
			c.fetchHalt = true
			return
		}
		in := c.decode(word)
		u.in = in
		u.info = in.Op.InfoRef()
		if u.info.Format == 0 { // undefined opcode, same test as Op.Valid
			u.hasExc = true
			u.exc = isa.VecUndef
			u.excRet = c.fetchPC
			u.state = uopDone
			c.fetchQ.push(u)
			c.fetchHalt = true
			return
		}
		u.setFlags = in.SetFlags || u.info.SetsFlags
		next := c.fetchPC + 4
		switch {
		case u.info.Format == isa.FmtBr:
			u.isBranch = true
			target := c.fetchPC + 4 + uint32(in.Imm)*4
			taken := true
			if in.Cond != isa.CondAL {
				taken = c.predictor[c.predictorIdx(c.fetchPC)] >= 2
			}
			u.predTaken = taken
			u.predTarget = target
			if taken {
				next = target
			}
		case in.Op == isa.OpBX:
			u.isBranch = true
			if e := c.btb[c.btbIdx(c.fetchPC)]; e.valid && e.tag == c.fetchPC {
				u.predTaken = true
				u.predTarget = e.target
				next = e.target
			}
		case u.info.Serialise:
			// System ops redirect or drain; stop fetching past them.
			c.fetchHalt = true
		}
		c.fetchQ.push(u)
		c.fetchPC = next
		if c.fetchHalt {
			return
		}
		if lat > l1iHit {
			return // line miss: no more fetches this cycle
		}
	}
}

func (c *Detailed) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// allocUop draws a zeroed uop from the pool; recycleUop returns one. All
// in-flight uops are recycled at commit or flush, which keeps the
// per-cycle allocation rate near zero.
// noOpInfo is the metadata fresh uops carry until fetch decodes them;
// exception uops keep it (their zero-valued fields are all dispatch ever
// consults).
var noOpInfo = new(isa.OpInfo)

func (c *Detailed) allocUop() *uop {
	if n := len(c.uopPool); n > 0 {
		u := c.uopPool[n-1]
		c.uopPool = c.uopPool[:n-1]
		*u = uop{info: noOpInfo}
		return u
	}
	return &uop{info: noOpInfo}
}

func (c *Detailed) recycleUop(u *uop) {
	c.uopPool = append(c.uopPool, u)
}

// decode memoises isa.Decode by word value (a pure function) in a small
// direct-mapped cache.
func (c *Detailed) decode(word uint32) isa.Instruction {
	idx := word * 2654435761 >> 20 & uint32(len(c.decTags)-1)
	if c.decTags[idx] == word {
		return c.decOps[idx]
	}
	in := isa.Decode(word)
	c.decTags[idx] = word
	c.decOps[idx] = in
	return in
}

// ------------------------------------------------------------- dispatch ---

func (c *Detailed) dispatch() {
	for n := 0; n < c.cfg.Width; n++ {
		if c.fetchQ.len() == 0 || c.serializeBlock {
			return
		}
		u := c.fetchQ.front()
		if u.hasExc {
			if c.rob.len() >= c.cfg.ROBSize {
				return
			}
			c.fetchQ.pop()
			u.srcRn, u.srcOp2, u.srcRd, u.srcFlags = -1, -1, -1, -1
			u.dst, u.dstFlags = -1, -1
			c.rob.push(u)
			continue
		}
		if u.info.Serialise && u.in.Op != isa.OpNOP {
			if c.rob.len() > 0 {
				return // wait for the ROB to drain
			}
			c.fetchQ.pop()
			c.renameSerialized(u)
			c.rob.push(u)
			c.serializeBlock = true
			return
		}
		if c.rob.len() >= c.cfg.ROBSize || len(c.iq) >= c.cfg.IQSize {
			return
		}
		if !c.rename(u) {
			return // out of physical registers
		}
		c.fetchQ.pop()
		c.rob.push(u)
		c.iq = append(c.iq, u)
	}
}

// renameSerialized marks a system op ready to "execute" at commit.
func (c *Detailed) renameSerialized(u *uop) {
	u.srcRn, u.srcOp2, u.srcFlags = -1, -1, -1
	u.srcRd = -1
	u.dst, u.dstFlags = -1, -1
	u.oldDst, u.oldDstFlags = -1, -1
	if u.in.Op == isa.OpMRS || u.in.Op == isa.OpMSR {
		// Source/destination resolved directly against committed state at
		// commit time (the ROB is empty by construction).
		u.srcRd = c.renameMap[u.in.Rd]
	}
	u.state = uopDone
	u.serialized = true
}

// rename allocates physical registers and records source dependencies.
// It reports false when the free list cannot cover the destinations.
func (c *Detailed) rename(u *uop) bool {
	info := u.info
	needDst := info.WritesRd && u.in.Rd != isa.PC
	needFlags := u.setFlags
	need := 0
	if needDst {
		need++
	}
	if needFlags {
		need++
	}
	if len(c.freeList) < need {
		return false
	}
	u.srcRn, u.srcOp2, u.srcRd, u.srcFlags = -1, -1, -1, -1
	u.dst, u.dstFlags = -1, -1
	u.oldDst, u.oldDstFlags = -1, -1
	if info.ReadsRn && u.in.Rn != isa.PC {
		u.srcRn = c.renameMap[u.in.Rn]
	}
	if info.ReadsOp2 && !u.UsesImmOp2() && u.in.Rm != isa.PC {
		u.srcOp2 = c.renameMap[u.in.Rm]
	}
	conditional := u.in.Cond != isa.CondAL
	if conditional || info.ReadsRd || info.ReadsFlags || needFlags {
		// Conditional ops and carry consumers read the old flags; flag
		// writers merge into the renamed flag register even when
		// predicated off.
		u.srcFlags = c.renameMap[flagsArch]
	}
	if (info.ReadsRd || (conditional && needDst)) && u.in.Rd != isa.PC {
		u.srcRd = c.renameMap[u.in.Rd]
	}
	if needDst {
		u.dst = c.alloc()
		u.oldDst = c.renameMap[u.in.Rd]
		c.renameMap[u.in.Rd] = u.dst
	}
	if needFlags {
		u.dstFlags = c.alloc()
		u.oldDstFlags = c.renameMap[flagsArch]
		c.renameMap[flagsArch] = u.dstFlags
	}
	if info.WritesRd && u.in.Rd == isa.PC {
		u.writesPC = true
	}
	u.isStore = info.IsStore
	u.state = uopDispatched
	return true
}

// UsesImmOp2 reports whether the second operand is an immediate.
func (u *uop) UsesImmOp2() bool {
	return u.in.UseImm || u.info.Format == isa.FmtMovW || u.info.Format == isa.FmtBr
}

func (c *Detailed) alloc() int {
	idx := c.freeList[len(c.freeList)-1]
	c.freeList = c.freeList[:len(c.freeList)-1]
	c.prf[idx].ready = false
	return idx
}

// ---------------------------------------------------------------- issue ---

func (c *Detailed) srcReady(idx int) bool { return idx < 0 || c.prf[idx].ready }

func (c *Detailed) uopReady(u *uop) bool {
	return c.srcReady(u.srcRn) && c.srcReady(u.srcOp2) &&
		c.srcReady(u.srcRd) && c.srcReady(u.srcFlags)
}

// olderStoreBlocks reports whether a load at ROB position must wait: any
// older store with an unresolved address, or an overlapping older store
// that cannot forward exactly.
func (c *Detailed) olderStoreBlocks(u *uop, addr, size uint32) (uint32, bool, bool) {
	var fwdVal uint32
	fwd := false
	for i, n := 0, c.rob.len(); i < n; i++ {
		s := c.rob.at(i)
		if s.seq >= u.seq {
			break
		}
		if !s.isStore || s.condFail {
			continue
		}
		if !s.addrReady {
			return 0, false, true
		}
		if s.storeAddr == addr && s.storeSize == size {
			fwdVal = s.storeVal
			fwd = true
			continue
		}
		if s.storeAddr < addr+size && addr < s.storeAddr+s.storeSize {
			return 0, false, true // partial overlap: wait for drain
		}
	}
	return fwdVal, fwd, false
}

func (c *Detailed) issue() {
	issued, maxIssue := 0, c.cfg.Width+1
	for _, u := range c.iq {
		if issued >= maxIssue {
			break
		}
		if u.state != uopDispatched || !c.uopReady(u) {
			continue
		}
		unit := c.findFU(u.info.Unit)
		if unit == nil {
			continue
		}
		if c.execute(u, unit) {
			issued++
		}
	}
	// Compact the issue queue: only not-yet-issued uops stay.
	live := c.iq[:0]
	for _, u := range c.iq {
		if u.state == uopDispatched {
			live = append(live, u)
		}
	}
	c.iq = live
}

func (c *Detailed) findFU(kind isa.FU) *fu {
	for i := range c.fus {
		if c.fus[i].kind == kind && c.fus[i].busyUntil <= c.cycle {
			return &c.fus[i]
		}
	}
	return nil
}

func (c *Detailed) readSrc(idx int, pcVal uint32, r isa.Reg) uint32 {
	if r == isa.PC {
		return pcVal + 4
	}
	if idx < 0 {
		return 0
	}
	return c.prf[idx].value
}

// execute runs a uop on a functional unit; returns false if it could not
// start (e.g. a blocked load).
func (c *Detailed) execute(u *uop, unit *fu) bool {
	flags := unpackFlags(c.readSrc(u.srcFlags, u.pc, isa.R0))
	pass := u.in.Cond.Passes(flags)
	lat := u.info.Latency
	rn := c.readSrc(u.srcRn, u.pc, u.in.Rn)
	var op2 uint32
	switch {
	case u.UsesImmOp2():
		op2 = uint32(u.in.Imm)
	default:
		op2 = u.in.Shift.Apply(c.readSrc(u.srcOp2, u.pc, u.in.Rm), u.in.ShAmt)
	}
	rdOld := c.readSrc(u.srcRd, u.pc, u.in.Rd)

	if c.taintProbe != nil {
		// Source reads happen above regardless of the predicate, so a
		// predicated-off or later-squashed consumer still counts: the
		// corrupted bits left the register file toward a functional unit,
		// and the squash is itself a (microarchitectural) logical mask.
		switch t := c.taintReg; {
		case u.srcRn == t:
			u.taintRead = true
			c.taintProbe.NoteReadReg("prf", u.pc, u.in.Rn.String())
		case u.srcOp2 == t:
			u.taintRead = true
			c.taintProbe.NoteReadReg("prf", u.pc, u.in.Rm.String())
		case u.srcRd == t:
			u.taintRead = true
			c.taintProbe.NoteReadReg("prf", u.pc, u.in.Rd.String())
		case u.srcFlags == t:
			u.taintRead = true
			c.taintProbe.NoteReadReg("prf", u.pc, "flags")
		}
	}

	if !pass {
		// Predicated off: carry the old destination/flag values through.
		u.condFail = true
		u.value = rdOld
		u.flags = flags
		if u.isBranch {
			u.taken = false
			u.target = u.pc + 4
			u.mispredict = u.predTaken
		}
		u.addrReady = true
		u.isStore = false
		c.finish(u, unit, 1)
		return true
	}

	switch u.info.Format {
	case isa.FmtDP, isa.FmtMovW:
		res := isa.ExecDP(u.in.Op, rn, op2, rdOld, flags, u.in.SetFlags)
		u.value = res.Value
		if res.FlagsValid {
			u.flags = res.Flags
		} else {
			u.flags = flags
		}
		if u.writesPC {
			u.mispredict = true
			u.target = res.Value &^ 1
			u.taken = true
		}
	case isa.FmtMem:
		addr := rn + op2
		size := loadStoreSize(u.in.Op)
		if u.isStore {
			u.storeAddr = addr
			u.storeSize = size
			u.storeVal = rdOld
			u.addrReady = true
		} else {
			if !c.execLoad(u, addr, size) {
				return false
			}
			lat = u.loadLat
			if u.writesPC && !u.hasExc {
				u.mispredict = true
				u.taken = true
				u.target = u.value &^ 1
			}
		}
		u.flags = flags
	case isa.FmtBr:
		u.taken = true
		u.target = u.pc + 4 + uint32(u.in.Imm)*4
		u.value = u.pc + 4 // BL link value
		u.flags = flags
		u.mispredict = !u.predTaken || u.predTarget != u.target
	case isa.FmtSys: // only NOP reaches the backend among system ops
		u.flags = flags
	default: // FmtBX
		u.taken = true
		u.target = c.readSrc(u.srcOp2, u.pc, u.in.Rm) &^ 1
		u.flags = flags
		u.mispredict = !u.predTaken || u.predTarget != u.target
	}
	c.finish(u, unit, lat)
	return true
}

func (c *Detailed) finish(u *uop, unit *fu, lat int) {
	if lat < 1 {
		lat = 1
	}
	u.state = uopExecuting
	u.doneAt = c.cycle + uint64(lat)
	c.executing = append(c.executing, u)
	// Long-latency units (divide, sqrt) are unpipelined.
	if lat > 8 {
		unit.busyUntil = u.doneAt
	} else {
		unit.busyUntil = c.cycle + 1
	}
}

// execLoad performs the cache access for a load, honouring the store
// buffer. It reports false when the load must retry later.
func (c *Detailed) execLoad(u *uop, addr, size uint32) bool {
	fwdVal, fwd, blocked := c.olderStoreBlocks(u, addr, size)
	if blocked {
		return false
	}
	if fwd {
		u.value = fwdVal & sizeMask(size)
		u.loadLat = 1
		return true
	}
	val, lat, fault := c.mem.Load(addr, size, c.mode)
	if fault != nil {
		u.hasExc = true
		u.exc = isa.VecDataAbort
		u.excRet = u.pc
		u.loadLat = lat
		return true
	}
	u.value = val
	u.loadLat = lat
	return true
}

func sizeMask(size uint32) uint32 {
	switch size {
	case 1:
		return 0xFF
	case 2:
		return 0xFFFF
	default:
		return 0xFFFF_FFFF
	}
}

// ------------------------------------------------------------ writeback ---

func (c *Detailed) writeback() {
	live := c.executing[:0]
	for _, u := range c.executing {
		if u.doneAt > c.cycle {
			live = append(live, u)
			continue
		}
		u.state = uopDone
		if u.dst >= 0 && !u.writesPC {
			c.notePhysWrite(u.dst)
			c.prf[u.dst].value = u.value
			c.prf[u.dst].ready = true
		}
		if u.dstFlags >= 0 {
			c.notePhysWrite(u.dstFlags)
			c.prf[u.dstFlags].value = packFlags(u.flags)
			c.prf[u.dstFlags].ready = true
		}
	}
	c.executing = live
}

// --------------------------------------------------------------- commit ---

func (c *Detailed) commit() {
	if c.cycle < c.commitStall {
		return
	}
	// An interrupt is taken at a commit boundary, like any precise event.
	if !c.irqOff && c.irq.Pending() {
		c.flush()
		c.takeException(isa.VecIRQ, c.commitPC)
		return
	}
	for n := 0; n < c.cfg.Width; n++ {
		if c.rob.len() == 0 {
			return
		}
		u := c.rob.front()
		if u.state != uopDone {
			return
		}
		if u.hasExc {
			// Read the fields before flush recycles the uop.
			exc, ret := u.exc, u.excRet
			c.flush()
			c.takeException(exc, ret)
			return
		}
		if u.serialized {
			c.commitSerialized(u)
			c.recycleUop(u)
			return
		}
		if u.isStore && !u.condFail {
			lat, fault := c.mem.Store(u.storeAddr, u.storeSize, u.storeVal, c.mode)
			if fault != nil {
				pc := u.pc
				c.flush()
				c.takeException(isa.VecDataAbort, pc)
				return
			}
			if lat > 2 {
				c.commitStall = c.cycle + uint64(lat)
			}
		}
		c.rob.pop()
		c.instrs++
		c.retireRegs(u)
		if u.taintRead && c.commitProbe != nil {
			reg := ""
			if u.dst >= 0 && !u.writesPC {
				reg = u.in.Rd.String()
			}
			c.commitProbe.NoteCommit("prf", u.pc, reg)
		}
		if u.isBranch || u.writesPC {
			c.trainPredictor(u)
		}
		if (u.isBranch || u.writesPC) && u.mispredict {
			c.branchMisses++
			c.flush()
			if u.taken {
				c.redirect(u.target)
			} else {
				c.redirect(u.pc + 4)
			}
			c.commitPC = c.fetchPC
			c.recycleUop(u)
			return
		}
		if u.isBranch && u.taken {
			c.commitPC = u.target
		} else {
			c.commitPC = u.pc + 4
		}
		stallAfterStore := u.isStore && c.cycle < c.commitStall
		c.recycleUop(u)
		if stallAfterStore {
			return
		}
	}
}

// retireRegs makes a uop's renamed destinations architectural and frees the
// previous mappings.
func (c *Detailed) retireRegs(u *uop) {
	if u.dst >= 0 && !u.writesPC {
		c.freeList = append(c.freeList, c.archMap[u.in.Rd])
		c.archMap[u.in.Rd] = u.dst
	}
	if u.dstFlags >= 0 {
		c.freeList = append(c.freeList, c.archMap[flagsArch])
		c.archMap[flagsArch] = u.dstFlags
	}
}

func (c *Detailed) trainPredictor(u *uop) {
	if u.in.Op == isa.OpB || u.in.Op == isa.OpBL {
		if u.in.Cond != isa.CondAL {
			idx := c.predictorIdx(u.pc)
			if u.taken && c.predictor[idx] < 3 {
				c.predictor[idx]++
			} else if !u.taken && c.predictor[idx] > 0 {
				c.predictor[idx]--
			}
		}
		return
	}
	if u.taken {
		c.btb[c.btbIdx(u.pc)] = btbEntry{valid: true, tag: u.pc, target: u.target}
	}
}

// commitSerialized performs a system op's effect at commit. The ROB holds
// only this uop, so committed state may be mutated directly.
func (c *Detailed) commitSerialized(u *uop) {
	c.rob.pop()
	c.instrs++
	c.notePhysRead(c.archMap[flagsArch], u.pc, "flags")
	flags := unpackFlags(c.prf[c.archMap[flagsArch]].value)
	if !u.in.Cond.Passes(flags) {
		c.commitPC = u.pc + 4
		c.resume(u.pc + 4)
		return
	}
	switch u.in.Op {
	case isa.OpSVC:
		c.takeException(isa.VecSVC, u.pc+4)
	case isa.OpWFI:
		if !c.mode.Privileged() {
			c.takeException(isa.VecUndef, u.pc)
			return
		}
		c.wfi = true
		c.commitPC = u.pc + 4
		c.resume(u.pc + 4)
	case isa.OpMRS:
		v, ok := c.sysRead(isa.SysReg(u.in.Imm))
		if !ok {
			c.takeException(isa.VecUndef, u.pc)
			return
		}
		c.notePhysWrite(c.archMap[u.in.Rd])
		c.prf[c.archMap[u.in.Rd]].value = v
		c.commitPC = u.pc + 4
		c.resume(u.pc + 4)
	case isa.OpMSR:
		c.notePhysRead(c.archMap[u.in.Rd], u.pc, u.in.Rd.String())
		if !c.sysWrite(isa.SysReg(u.in.Imm), c.prf[c.archMap[u.in.Rd]].value) {
			c.takeException(isa.VecUndef, u.pc)
			return
		}
		c.commitPC = u.pc + 4
		c.resume(u.pc + 4)
	case isa.OpERET:
		c.eret(u.pc)
	default:
		c.takeException(isa.VecUndef, u.pc)
	}
}

// resume restarts fetch after a serialising instruction.
func (c *Detailed) resume(pc uint32) {
	c.serializeBlock = false
	c.fetchHalt = false
	c.fetchPC = pc
	// The fetch queue is empty by construction (fetch halted at the
	// serialising op); recycle any residue so the pool never shrinks.
	for i := 0; i < c.fetchQ.len(); i++ {
		c.recycleUop(c.fetchQ.at(i))
	}
	c.fetchQ.clear()
}

// ------------------------------------------------- flush and exceptions ---

// flush squashes every in-flight uop and resets the rename map to the
// committed state. This is the commit-time recovery path for branch
// mispredictions, exceptions, and interrupts.
func (c *Detailed) flush() {
	c.squashed += uint64(c.fetchQ.len())
	for i := 0; i < c.fetchQ.len(); i++ {
		c.recycleUop(c.fetchQ.at(i))
	}
	for i := 0; i < c.rob.len(); i++ {
		u := c.rob.at(i)
		c.squashed++
		if u.dst >= 0 && !u.writesPC {
			c.freeList = append(c.freeList, u.dst)
		}
		if u.dstFlags >= 0 {
			c.freeList = append(c.freeList, u.dstFlags)
		}
		c.recycleUop(u)
	}
	c.fetchQ.clear()
	c.rob.clear()
	c.iq = c.iq[:0]
	c.executing = c.executing[:0]
	c.renameMap = c.archMap
	c.serializeBlock = false
	c.fetchHalt = false
	c.commitStall = 0
}

func (c *Detailed) redirect(pc uint32) {
	c.fetchPC = pc
	c.fetchStall = 0
}

func (c *Detailed) curFlags() isa.Flags {
	c.notePhysRead(c.archMap[flagsArch], c.commitPC, "flags")
	return unpackFlags(c.prf[c.archMap[flagsArch]].value)
}

func (c *Detailed) setCurFlags(f isa.Flags) {
	c.notePhysWrite(c.archMap[flagsArch])
	c.prf[c.archMap[flagsArch]].value = packFlags(f)
}

// switchMode banks the committed stack pointer and changes mode.
func (c *Detailed) switchMode(m isa.Mode) {
	sp := c.archMap[isa.SP]
	// Banking a tainted SP copies the corrupted value aside for later
	// restoration (a consumption), then overwrites the register.
	c.notePhysRead(sp, c.commitPC, isa.SP.String())
	c.spBank[bankIndex(c.mode)] = c.prf[sp].value
	c.notePhysWrite(sp)
	c.prf[sp].value = c.spBank[bankIndex(m)]
	c.mode = m
}

func (c *Detailed) takeException(vec isa.Vector, retPC uint32) {
	c.flush()
	bank := bankIndex(vec.Mode())
	c.spsr[bank] = isa.PackCPSR(c.curFlags(), c.mode, c.irqOff)
	c.elr[bank] = retPC
	c.switchMode(vec.Mode())
	c.irqOff = true
	c.wfi = false
	c.commitPC = c.vbar + 4*uint32(vec)
	c.redirect(c.commitPC)
}

func (c *Detailed) sysRead(sr isa.SysReg) (uint32, bool) {
	switch sr {
	case isa.SysCPSR:
		return uint32(isa.PackCPSR(c.curFlags(), c.mode, c.irqOff)), true
	case isa.SysSPSR:
		if !c.mode.Privileged() {
			return 0, false
		}
		return uint32(c.spsr[bankIndex(c.mode)]), true
	case isa.SysELR:
		if !c.mode.Privileged() {
			return 0, false
		}
		return c.elr[bankIndex(c.mode)], true
	case isa.SysTTBR:
		if !c.mode.Privileged() {
			return 0, false
		}
		return c.mem.TTBR(), true
	case isa.SysVBAR:
		if !c.mode.Privileged() {
			return 0, false
		}
		return c.vbar, true
	default:
		return 0, false
	}
}

func (c *Detailed) sysWrite(sr isa.SysReg, v uint32) bool {
	if !c.mode.Privileged() {
		return false
	}
	switch sr {
	case isa.SysCPSR:
		w := isa.CPSR(v)
		if !w.Valid() {
			c.fatal = true
			return true
		}
		c.setCurFlags(w.Flags())
		c.irqOff = w.IRQOff()
		c.switchMode(w.Mode())
		return true
	case isa.SysSPSR:
		c.spsr[bankIndex(c.mode)] = isa.CPSR(v)
		return true
	case isa.SysELR:
		c.elr[bankIndex(c.mode)] = v
		return true
	case isa.SysTTBR:
		c.mem.SetTTBR(v)
		return true
	case isa.SysVBAR:
		c.vbar = v
		return true
	default:
		return false
	}
}

func (c *Detailed) eret(pc uint32) {
	if !c.mode.Privileged() {
		c.takeException(isa.VecUndef, pc)
		return
	}
	bank := bankIndex(c.mode)
	saved := c.spsr[bank]
	if !saved.Valid() {
		c.fatal = true
		return
	}
	target := c.elr[bank]
	c.setCurFlags(saved.Flags())
	c.irqOff = saved.IRQOff()
	c.switchMode(saved.Mode())
	c.commitPC = target
	c.resume(target)
}
