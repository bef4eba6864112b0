// Package mem models the memory system of the simulated SoC: a physical
// DRAM, a device bus, set-associative write-back caches that store real data
// bits, translation lookaside buffers, and a hardware page-table walker.
//
// Every array models its content bits explicitly, because the fault injector
// and the beam simulator corrupt *stored bits*, and the propagation physics
// the reproduced paper measures (clean corrupted lines healing on refill,
// dirty lines writing corruption back, TLB tag flips causing only misses)
// must emerge from the data paths rather than be scripted.
package mem

import (
	"encoding/binary"
	"fmt"
)

// DRAM is the flat physical memory backing the cache hierarchy. On the
// physical test board the DDR sits outside the irradiated chip area, so DRAM
// bits are never fault-injection targets — matching the paper's beam spot,
// which covered the SoC but not the on-board DDR.
type DRAM struct {
	data []byte

	// Dirty-page tracking for Rebase and RestorePages: once a restore
	// establishes a tracked base image, every write marks its 4 KiB pages,
	// and the next restore against the same base copies back only the
	// marked pages instead of the whole image. trackedBase identifies the base by its
	// backing array; nil means no tracking is active.
	dirty       []uint64
	trackedBase *byte

	// lastImg is the copy-on-write page image last applied by RestorePages.
	// While set, the tracking invariant generalises to: every page not
	// marked dirty equals lastImg's payload for that page, or the base page
	// where lastImg carries none. Rebase reverts to plain tracking.
	lastImg *PageImage

	// Propagation provenance taint: the byte a dirty writeback deposited
	// corruption into. DRAM is never a fault target itself (it sits
	// outside the beam spot); it only absorbs migrated taint.
	taintProbe *Probe
	taintAddr  uint32
}

// pageShift is the dirty-tracking granule (4 KiB pages).
const pageShift = 12

// markDirty records that [addr, addr+n) has been written. A no-op until
// a restore starts tracking; every DRAM mutation path must call it.
func (d *DRAM) markDirty(addr, n uint32) {
	if d.trackedBase == nil || n == 0 {
		return
	}
	for p := addr >> pageShift; p <= (addr+n-1)>>pageShift; p++ {
		d.dirty[p>>6] |= 1 << (p & 63)
	}
}

// NewDRAM allocates a physical memory of the given size in bytes.
func NewDRAM(size uint32) *DRAM {
	return &DRAM{data: make([]byte, size)}
}

// Size returns the memory size in bytes.
func (d *DRAM) Size() uint32 { return uint32(len(d.data)) }

// Contains reports whether the physical address range [addr, addr+n) is
// inside the DRAM.
func (d *DRAM) Contains(addr, n uint32) bool {
	end := uint64(addr) + uint64(n)
	return end <= uint64(len(d.data))
}

// ReadLine copies an aligned line into buf. It reports false if the range
// falls outside physical memory.
func (d *DRAM) ReadLine(addr uint32, buf []byte) bool {
	if !d.Contains(addr, uint32(len(buf))) {
		return false
	}
	copy(buf, d.data[addr:])
	if d.taintProbe != nil && d.taintOverlaps(addr, uint32(len(buf))) {
		// A refill consumed the corrupted byte back into the hierarchy.
		d.taintProbe.NoteRead("dram")
	}
	return true
}

// taintOverlaps reports whether [addr, addr+n) covers the tainted byte.
func (d *DRAM) taintOverlaps(addr, n uint32) bool {
	return addr <= d.taintAddr && uint64(d.taintAddr) < uint64(addr)+uint64(n)
}

// WriteLine stores an aligned line from buf. It reports false if the range
// falls outside physical memory.
func (d *DRAM) WriteLine(addr uint32, buf []byte) bool {
	if !d.Contains(addr, uint32(len(buf))) {
		return false
	}
	copy(d.data[addr:], buf)
	d.markDirty(addr, uint32(len(buf)))
	if d.taintProbe != nil && d.taintOverlaps(addr, uint32(len(buf))) {
		d.taintProbe.NoteOverwrite("dram")
		d.ClearTaint()
	}
	return true
}

// LoadImage copies a program image into physical memory at load time,
// bypassing the cache hierarchy (as a DMA or boot loader would).
func (d *DRAM) LoadImage(addr uint32, image []byte) error {
	if !d.Contains(addr, uint32(len(image))) {
		return fmt.Errorf("mem: image of %d bytes at %#x exceeds DRAM size %#x",
			len(image), addr, len(d.data))
	}
	copy(d.data[addr:], image)
	d.markDirty(addr, uint32(len(image)))
	if d.taintProbe != nil && d.taintOverlaps(addr, uint32(len(image))) {
		d.taintProbe.NoteOverwrite("dram")
		d.ClearTaint()
	}
	return nil
}

// Peek reads a 32-bit word directly from physical memory, bypassing caches.
// Harness-only: used by loaders and test oracles, never by simulated code.
func (d *DRAM) Peek(addr uint32) uint32 {
	if !d.Contains(addr, 4) {
		return 0
	}
	return binary.LittleEndian.Uint32(d.data[addr:])
}

// Poke writes a 32-bit word directly to physical memory, bypassing caches.
func (d *DRAM) Poke(addr, val uint32) {
	if d.Contains(addr, 4) {
		binary.LittleEndian.PutUint32(d.data[addr:], val)
		d.markDirty(addr, 4)
		if d.taintProbe != nil && d.taintOverlaps(addr, 4) {
			d.taintProbe.NoteOverwrite("dram")
			d.ClearTaint()
		}
	}
}

// PeekBytes copies n bytes starting at addr, bypassing caches.
func (d *DRAM) PeekBytes(addr, n uint32) []byte {
	if !d.Contains(addr, n) {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.data[addr:])
	return out
}

// Reset zeroes all of physical memory.
func (d *DRAM) Reset() {
	for i := range d.data {
		d.data[i] = 0
	}
	d.markDirty(0, uint32(len(d.data)))
	if d.taintProbe != nil {
		d.taintProbe.NoteOverwrite("dram")
		d.ClearTaint()
	}
}

// AbsorbTaint takes over a taint pushed out of the cache hierarchy by a
// dirty writeback of the corrupted line.
func (d *DRAM) AbsorbTaint(addr uint32, p *Probe) {
	d.taintProbe = p
	d.taintAddr = addr
}

// ClearTaint drops any tracked taint without emitting an event.
func (d *DRAM) ClearTaint() {
	d.taintProbe = nil
	d.taintAddr = 0
}
