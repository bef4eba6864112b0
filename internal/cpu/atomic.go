package cpu

import (
	"armsefi/internal/isa"
	"armsefi/internal/mem"
)

// Atomic is the fast functional CPU model: one instruction per step, with
// timing approximated as one cycle plus memory latency. It corresponds to
// the gem5 atomic model row of Table I.
type Atomic struct {
	mem *mem.System
	irq IRQLine

	pc     uint32
	regs   [isa.NumRegs]uint32
	flags  isa.Flags
	mode   isa.Mode
	irqOff bool
	vbar   uint32

	spBank [3]uint32
	elr    [3]uint32
	spsr   [3]isa.CPSR

	fatal bool
	wfi   bool

	cycles uint64
	instrs uint64

	trace func(pc uint32, mode isa.Mode, in isa.Instruction)

	// Propagation provenance taint: the architectural register holding an
	// injected bit. A nil probe means no taint is tracked. Reset wipes the
	// fields, which is fine: probes are armed mid-run, never across boots.
	taintProbe *mem.Probe
	taintReg   int
}

var _ Core = (*Atomic)(nil)

// NewAtomic builds an atomic-model core over a memory system.
func NewAtomic(m *mem.System, irq IRQLine) *Atomic {
	c := &Atomic{mem: m, irq: irq}
	c.Reset()
	return c
}

// Reset implements Core: SVC mode, interrupts masked, PC at the reset
// vector.
func (c *Atomic) Reset() {
	*c = Atomic{mem: c.mem, irq: c.irq, trace: c.trace, mode: isa.ModeSVC, irqOff: true}
}

// SetTrace installs an instruction hook invoked after decode for every
// executed instruction; nil disables tracing.
func (c *Atomic) SetTrace(fn func(pc uint32, mode isa.Mode, in isa.Instruction)) {
	c.trace = fn
}

// Cycles implements Core.
func (c *Atomic) Cycles() uint64 { return c.cycles }

// Instructions implements Core.
func (c *Atomic) Instructions() uint64 { return c.instrs }

// Fatal implements Core.
func (c *Atomic) Fatal() bool { return c.fatal }

// Mode implements Core.
func (c *Atomic) Mode() isa.Mode { return c.mode }

// PC implements Core.
func (c *Atomic) PC() uint32 { return c.pc }

// Reg implements Core.
func (c *Atomic) Reg(r isa.Reg) uint32 { return c.regs[r] }

// SetReg sets an architectural register; used by tests and the loader.
func (c *Atomic) SetReg(r isa.Reg, v uint32) { c.regs[r] = v }

// Flags returns the current NZCV flags.
func (c *Atomic) Flags() isa.Flags { return c.flags }

// RegFileBits implements Core: the atomic model's injection surface is the
// architectural register file.
func (c *Atomic) RegFileBits() uint64 { return isa.NumRegs * 32 }

// FlipRegFileBit implements Core.
func (c *Atomic) FlipRegFileBit(bit uint64) {
	bit %= c.RegFileBits()
	c.regs[bit/32] ^= 1 << (bit % 32)
}

// TaintRegBit marks the register holding a linearly-addressed bit (same
// addressing as FlipRegFileBit) as tainted and arms the probe. The atomic
// model's architectural registers are always live. Reads commit instantly
// in this model, so consumption is reported as a single read event.
func (c *Atomic) TaintRegBit(bit uint64, p *mem.Probe) {
	bit %= c.RegFileBits()
	c.taintProbe = p
	c.taintReg = int(bit / 32)
	p.Arm(true)
}

// Tainted reports whether the core still tracks a provenance taint.
func (c *Atomic) Tainted() bool { return c.taintProbe != nil }

// ClearRegTaint drops any tracked register taint without emitting an event.
func (c *Atomic) ClearRegTaint() {
	c.taintProbe = nil
	c.taintReg = 0
}

// noteRegRead reports a consuming read of the tainted register.
func (c *Atomic) noteRegRead(r isa.Reg) {
	if c.taintProbe != nil && int(r) == c.taintReg {
		c.taintProbe.NoteReadReg("regfile", c.pc, r.String())
	}
}

// noteRegWrite reports that a write killed the tainted register's value.
func (c *Atomic) noteRegWrite(r isa.Reg) {
	if c.taintProbe != nil && int(r) == c.taintReg {
		c.taintProbe.NoteOverwrite("regfile")
		c.ClearRegTaint()
	}
}

// Counters implements Core.
func (c *Atomic) Counters() Counters {
	return Counters{
		Cycles:       c.cycles,
		Instructions: c.instrs,
		L1DAccesses:  c.mem.L1D.Stats().Accesses(),
		L1DMisses:    c.mem.L1D.Stats().Misses,
		DTLBMisses:   c.mem.DTLB.Stats().Misses,
		L1IMisses:    c.mem.L1I.Stats().Misses,
		ITLBMisses:   c.mem.ITLB.Stats().Misses,
	}
}

// readReg reads a register as an operand; the PC reads as the address of
// the next instruction.
func (c *Atomic) readReg(r isa.Reg) uint32 {
	if r == isa.PC {
		return c.pc + 4
	}
	c.noteRegRead(r)
	return c.regs[r]
}

// switchMode banks the stack pointer and changes mode.
func (c *Atomic) switchMode(m isa.Mode) {
	// Banking a tainted SP copies the corrupted value aside for later
	// restoration (a consumption), then overwrites the register.
	c.noteRegRead(isa.SP)
	c.spBank[bankIndex(c.mode)] = c.regs[isa.SP]
	c.noteRegWrite(isa.SP)
	c.regs[isa.SP] = c.spBank[bankIndex(m)]
	c.mode = m
}

// takeException enters an exception vector. retPC is the address execution
// resumes at after ERET.
func (c *Atomic) takeException(vec isa.Vector, retPC uint32) {
	bank := bankIndex(vec.Mode())
	c.spsr[bank] = isa.PackCPSR(c.flags, c.mode, c.irqOff)
	c.elr[bank] = retPC
	c.switchMode(vec.Mode())
	c.irqOff = true
	c.wfi = false
	c.pc = c.vbar + 4*uint32(vec)
}

// StepCycle implements Core: executes one instruction and returns its cost
// in cycles.
func (c *Atomic) StepCycle() int {
	if c.fatal {
		c.cycles++
		return 1
	}
	if !c.irqOff && c.irq.Pending() {
		c.takeException(isa.VecIRQ, c.pc)
		c.cycles++
		return 1
	}
	if c.wfi {
		c.cycles++
		return 1
	}
	lat := c.exec()
	c.cycles += uint64(lat)
	return lat
}

// exec runs one instruction and returns its cycle cost.
func (c *Atomic) exec() int {
	word, fetchLat, fault := c.mem.FetchInstr(c.pc, c.mode)
	lat := 1 + fetchLat
	if fault != nil {
		c.takeException(isa.VecPrefetchAbort, c.pc)
		return lat
	}
	in := isa.Decode(word)
	if c.trace != nil {
		c.trace(c.pc, c.mode, in)
	}
	if !in.Op.Valid() {
		c.takeException(isa.VecUndef, c.pc)
		return lat
	}
	c.instrs++
	if !in.Cond.Passes(c.flags) {
		c.pc += 4
		return lat
	}
	info := in.Op.Info()
	switch info.Format {
	case isa.FmtDP, isa.FmtMovW:
		lat += info.Latency - 1
		c.execDP(in)
	case isa.FmtMem:
		lat += c.execMem(in)
	case isa.FmtBr:
		target := c.pc + 4 + uint32(in.Imm)*4
		if in.Op == isa.OpBL {
			c.noteRegWrite(isa.LR)
			c.regs[isa.LR] = c.pc + 4
		}
		c.pc = target
	case isa.FmtBX:
		c.pc = c.readReg(in.Rm) &^ 1
	case isa.FmtSys:
		lat += c.execSys(in)
	}
	return lat
}

func (c *Atomic) execDP(in isa.Instruction) {
	var op2 uint32
	if in.UseImm || in.Op.Info().Format == isa.FmtMovW {
		op2 = uint32(in.Imm)
	} else {
		op2 = in.Shift.Apply(c.readReg(in.Rm), in.ShAmt)
	}
	res := isa.ExecDP(in.Op, c.readReg(in.Rn), op2, c.readReg(in.Rd), c.flags, in.SetFlags)
	if res.FlagsValid {
		c.flags = res.Flags
	}
	if !in.Op.Info().WritesRd {
		c.pc += 4
		return
	}
	if in.Rd == isa.PC {
		// An ALU write to the PC is an indirect jump (and the way a
		// corrupted destination-register field turns into a wild branch).
		c.pc = res.Value &^ 1
		return
	}
	c.noteRegWrite(in.Rd)
	c.regs[in.Rd] = res.Value
	c.pc += 4
}

func (c *Atomic) execMem(in isa.Instruction) int {
	var off uint32
	if in.UseImm {
		off = uint32(in.Imm)
	} else {
		off = in.Shift.Apply(c.readReg(in.Rm), in.ShAmt)
	}
	addr := c.readReg(in.Rn) + off
	size := loadStoreSize(in.Op)
	if in.Op.Info().IsLoad {
		val, lat, fault := c.mem.Load(addr, size, c.mode)
		if fault != nil {
			c.takeException(isa.VecDataAbort, c.pc)
			return lat
		}
		if in.Rd == isa.PC {
			c.pc = val &^ 1
			return lat
		}
		c.noteRegWrite(in.Rd)
		c.regs[in.Rd] = val
		c.pc += 4
		return lat
	}
	lat, fault := c.mem.Store(addr, size, c.readReg(in.Rd), c.mode)
	if fault != nil {
		c.takeException(isa.VecDataAbort, c.pc)
		return lat
	}
	c.pc += 4
	return lat
}

func (c *Atomic) execSys(in isa.Instruction) int {
	switch in.Op {
	case isa.OpNOP:
		c.pc += 4
		return 0
	case isa.OpSVC:
		c.takeException(isa.VecSVC, c.pc+4)
		return 1
	case isa.OpWFI:
		if !c.mode.Privileged() {
			c.takeException(isa.VecUndef, c.pc)
			return 1
		}
		c.wfi = true
		c.pc += 4
		return 1
	case isa.OpMRS:
		v, ok := c.sysRead(isa.SysReg(in.Imm))
		if !ok {
			c.takeException(isa.VecUndef, c.pc)
			return 1
		}
		c.noteRegWrite(in.Rd)
		c.regs[in.Rd] = v
		c.pc += 4
		return 1
	case isa.OpMSR:
		if !c.sysWrite(isa.SysReg(in.Imm), c.readReg(in.Rd)) {
			c.takeException(isa.VecUndef, c.pc)
		} else {
			c.pc += 4
		}
		return 1
	case isa.OpERET:
		c.eret()
		return 2
	default:
		c.takeException(isa.VecUndef, c.pc)
		return 1
	}
}

func (c *Atomic) sysRead(sr isa.SysReg) (uint32, bool) {
	switch sr {
	case isa.SysCPSR:
		return uint32(isa.PackCPSR(c.flags, c.mode, c.irqOff)), true
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

func (c *Atomic) sysWrite(sr isa.SysReg, v uint32) bool {
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
		c.flags = w.Flags()
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

// eret returns from an exception. A corrupted SPSR whose mode field is
// invalid leaves the core in an unrecoverable state — the hardware
// equivalent of a system crash.
func (c *Atomic) eret() {
	if !c.mode.Privileged() {
		c.takeException(isa.VecUndef, c.pc)
		return
	}
	bank := bankIndex(c.mode)
	saved := c.spsr[bank]
	if !saved.Valid() {
		c.fatal = true
		return
	}
	c.pc = c.elr[bank]
	c.flags = saved.Flags()
	c.irqOff = saved.IRQOff()
	c.switchMode(saved.Mode())
}

// SaveArch captures the committed architectural state.
func (c *Atomic) SaveArch() ArchState {
	return ArchState{
		PC: c.pc, Regs: c.regs, Flags: c.flags, Mode: c.mode,
		IRQOff: c.irqOff, VBAR: c.vbar,
		SPBank: c.spBank, ELR: c.elr, SPSR: c.spsr,
		TTBR: c.mem.TTBR(),
	}
}

// LoadArch restores architectural state saved by SaveArch, clearing any
// fatal or wait-for-interrupt condition and zeroing the counters.
func (c *Atomic) LoadArch(st ArchState) {
	if c.taintProbe != nil {
		// An architectural reload wipes the register file (beam restart
		// path; injection runs disarm before any restore).
		c.taintProbe.NoteOverwrite("regfile")
		c.ClearRegTaint()
	}
	c.pc = st.PC
	c.regs = st.Regs
	c.flags = st.Flags
	c.mode = st.Mode
	c.irqOff = st.IRQOff
	c.vbar = st.VBAR
	c.spBank = st.SPBank
	c.elr = st.ELR
	c.spsr = st.SPSR
	c.mem.SetTTBR(st.TTBR)
	c.fatal = false
	c.wfi = false
	c.cycles = 0
	c.instrs = 0
}
