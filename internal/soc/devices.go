// Package soc assembles the full simulated platform: memory map, MMIO
// devices, platform presets (the Zynq-like board and the gem5-like model),
// the kernel image, and the Machine that boots, runs, snapshots, and
// restores complete system states.
package soc

import "armsefi/internal/mem"

// UART is the console device: bytes written to its TX register are the
// program output compared against the golden reference.
type UART struct {
	out []byte
}

var _ mem.Device = (*UART)(nil)

// UART register offsets.
const (
	uartTX     = 0x0
	uartStatus = 0x4
)

// Name implements mem.Device.
func (u *UART) Name() string { return "uart" }

// Read32 implements mem.Device: the status register always reports ready.
func (u *UART) Read32(off uint32) uint32 {
	if off == uartStatus {
		return 1
	}
	return 0
}

// Write32 implements mem.Device: a TX write emits the low byte.
func (u *UART) Write32(off, val uint32) {
	if off == uartTX {
		u.out = append(u.out, byte(val))
	}
}

// Output returns a copy of everything transmitted so far.
func (u *UART) Output() []byte { return append([]byte(nil), u.out...) }

// Len returns the number of bytes transmitted.
func (u *UART) Len() int { return len(u.out) }

// Tail returns a copy of the bytes transmitted at or after position from.
// Result assembly uses it so each run copies only its own output, not the
// whole backlog accumulated across snapshot restores.
func (u *UART) Tail(from int) []byte {
	if from >= len(u.out) {
		return []byte{}
	}
	return append([]byte(nil), u.out[from:]...)
}

// Reset clears the transmit log.
func (u *UART) Reset() { u.out = u.out[:0] }

// Restore replaces the transmit log with b, reusing the existing buffer
// when it has capacity (snapshot restores happen once per injection run,
// so this path must not reallocate the backlog every time).
func (u *UART) Restore(b []byte) {
	if cap(u.out) < len(b) {
		u.out = make([]byte, len(b))
	} else {
		u.out = u.out[:len(b)]
	}
	copy(u.out, b)
}

// Timer is the periodic interrupt source driving the kernel scheduler
// tick. Writing a non-zero period to register 0 arms it; writing register 4
// acknowledges a pending interrupt.
type Timer struct {
	period  uint32
	count   uint64
	pending bool

	// accesses counts MMIO reads and writes. It is not device state (no
	// register exposes it and no behaviour depends on it); the hang proof
	// reads it to show a loop never touched the timer.
	accesses uint64
}

var _ mem.Device = (*Timer)(nil)

// Timer register offsets.
const (
	timerPeriod = 0x0
	timerAck    = 0x4
	timerCount  = 0x8
)

// Name implements mem.Device.
func (t *Timer) Name() string { return "timer" }

// Read32 implements mem.Device.
func (t *Timer) Read32(off uint32) uint32 {
	t.accesses++
	switch off {
	case timerPeriod:
		return t.period
	case timerCount:
		return uint32(t.count)
	default:
		return 0
	}
}

// Write32 implements mem.Device.
func (t *Timer) Write32(off, val uint32) {
	t.accesses++
	switch off {
	case timerPeriod:
		t.period = val
		t.count = 0
	case timerAck:
		t.pending = false
	}
}

// Tick advances the timer by the given number of cycles.
func (t *Timer) Tick(cycles int) {
	if t.period == 0 {
		return
	}
	t.count += uint64(cycles)
	for t.count >= uint64(t.period) {
		t.count -= uint64(t.period)
		t.pending = true
	}
}

// Pending implements cpu.IRQLine.
func (t *Timer) Pending() bool { return t.pending }

// Reset disarms the timer.
func (t *Timer) Reset() { *t = Timer{} }

// timerState snapshots a Timer.
type timerState struct{ t Timer }

func (t *Timer) save() timerState     { return timerState{t: *t} }
func (t *Timer) restore(s timerState) { *t = s.t }

// SysCtl is the system-control device: power-off port (register 0), kernel
// heartbeat (register 4), and application-alive counter (register 8). The
// host-side watchdog of the beam setup is modeled by the Machine observing
// these registers.
type SysCtl struct {
	halted   bool
	exitCode uint32
	beats    uint64
	appAlive uint64
}

var _ mem.Device = (*SysCtl)(nil)

// SysCtl register offsets.
const (
	sysPowerOff  = 0x0
	sysHeartbeat = 0x4
	sysAppAlive  = 0x8
)

// Name implements mem.Device.
func (s *SysCtl) Name() string { return "sysctl" }

// Read32 implements mem.Device.
func (s *SysCtl) Read32(off uint32) uint32 {
	switch off {
	case sysHeartbeat:
		return uint32(s.beats)
	case sysAppAlive:
		return uint32(s.appAlive)
	default:
		return 0
	}
}

// Write32 implements mem.Device.
func (s *SysCtl) Write32(off, val uint32) {
	switch off {
	case sysPowerOff:
		s.halted = true
		s.exitCode = val
	case sysHeartbeat:
		s.beats++
	case sysAppAlive:
		s.appAlive++
	}
}

// Halted reports whether the kernel has written the power-off port.
func (s *SysCtl) Halted() bool { return s.halted }

// ExitCode returns the value written to the power-off port.
func (s *SysCtl) ExitCode() uint32 { return s.exitCode }

// Beats returns the number of kernel heartbeats observed.
func (s *SysCtl) Beats() uint64 { return s.beats }

// AppAlive returns the number of application alive() calls observed.
func (s *SysCtl) AppAlive() uint64 { return s.appAlive }

// ClearHalt re-arms the device for another run without clearing counters.
func (s *SysCtl) ClearHalt() {
	s.halted = false
	s.exitCode = 0
}

// Reset clears all state.
func (s *SysCtl) Reset() { *s = SysCtl{} }

type sysCtlState struct{ s SysCtl }

func (s *SysCtl) save() sysCtlState      { return sysCtlState{s: *s} }
func (s *SysCtl) restore(st sysCtlState) { *s = st.s }
