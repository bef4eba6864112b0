package cpu

import (
	"testing"

	"armsefi/internal/mem"
)

// shiftDeadlines moves the detailed core forward by k cycles without
// executing anything: the cycle counter and every absolute deadline move
// together, which is what the same pipeline state reached k cycles later
// looks like.
func shiftDeadlines(c *Detailed, k uint64) {
	c.cycle += k
	c.fetchStall += k
	c.commitStall += k
	for i := range c.fus {
		c.fus[i].busyUntil += k
	}
	for _, q := range []*uopRing{&c.fetchQ, &c.rob} {
		for i := 0; i < q.len(); i++ {
			q.at(i).doneAt += k
		}
	}
}

// pendingDeadline reports whether some deadline still lies ahead.
func pendingDeadline(c *Detailed) bool {
	if c.fetchStall > c.cycle || c.commitStall > c.cycle {
		return true
	}
	for i := range c.fus {
		if c.fus[i].busyUntil > c.cycle {
			return true
		}
	}
	for i := 0; i < c.rob.len(); i++ {
		if c.rob.at(i).doneAt > c.cycle {
			return true
		}
	}
	return false
}

func microSum(c Core) uint64 {
	h := mem.NewHasher()
	c.(interface{ HashMicro(*mem.Hasher) }).HashMicro(h)
	return h.Sum()
}

// TestHashMicroShiftInvariant pins the hang proof's premise on the core:
// the same pipeline state at a later cycle (counters and every deadline
// shifted together) folds identically, and so does a different
// instruction count, while shifting the clock under unchanged deadlines —
// a genuinely different state, whose stalls end sooner — does not.
func TestHashMicroShiftInvariant(t *testing.T) {
	prog := assembleAt(t, `
	ldr r1, =0x4000
	mov r2, #7
loop:
	ldr r0, [r1]
	udiv r3, r0, r2
	add r1, r1, #64
	str r3, [r1]
	b loop
`)
	sys := load(t, prog)
	d := NewDetailed(sys, NeverIRQ{}, DetailedConfig{})
	for i := 0; i < 5_000 && !(d.cycle > 200 && pendingDeadline(d)); i++ {
		d.StepCycle()
	}
	if !pendingDeadline(d) {
		t.Fatal("no deadline in flight to shift")
	}
	base := microSum(d)
	saved := d.SaveMicro()

	shiftDeadlines(d, 123_457)
	d.instrs += 99
	if got := microSum(d); got != base {
		t.Fatalf("shifted state folds %#x, want %#x", got, base)
	}

	d.LoadMicro(saved)
	d.cycle++ // one cycle later, deadlines unmoved: every stall is shorter
	if microSum(d) == base {
		t.Fatal("clock moved under pending deadlines but the fold did not change")
	}
}
