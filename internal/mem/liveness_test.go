package mem

import "testing"

// liveCache builds a tiny instrumented cache: 2 ways x 16 sets x 32 B
// lines, with the test driving the clock stamp directly.
func liveCache(clock *uint64) (*Cache, *CacheLiveness) {
	dram := NewDRAM(1 << 16)
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 10, LineBytes: 32, Ways: 2, HitCycles: 1}, NewBus(dram))
	return c, c.AttachLiveness(clock)
}

// Bit 0 addresses set 0, way 0, byte 0 — the slot address 0 fills first.
const way0bit = 0

func TestCacheLivenessVerdicts(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)

	now = 10
	c.Read(0, 4) // fill at 10, covering read of bytes [0,4)

	// Flip before the fill: the slot held nothing then.
	if q := r.QueryBit(way0bit, 5); q.Verdict != LiveNeverRead || q.Valid {
		t.Fatalf("pre-fill flip: %+v", q)
	}
	// Flip after the fill with no later events: latent corruption.
	if q := r.QueryBit(way0bit, 11); q.Verdict != LiveLatent || !q.Valid {
		t.Fatalf("latent flip: %+v", q)
	}

	now = 20
	c.Read(0, 4)
	// Now a covering read at 20 follows a flip at 11: undecided.
	if q := r.QueryBit(way0bit, 11); q.Verdict != LiveUndecided || !q.Valid {
		t.Fatalf("consumed flip: %+v", q)
	}
	// A flip of byte 8 is outside every read's [0,4) coverage: latent.
	if q := r.QueryBit(8*8, 11); q.Verdict != LiveLatent {
		t.Fatalf("uncovered byte: %+v", q)
	}
	// A flip stamped exactly at the read lands before it: undecided.
	if q := r.QueryBit(way0bit, 20); q.Verdict != LiveUndecided {
		t.Fatalf("flip at read stamp: %+v", q)
	}

	now = 30
	c.Write(0, 4, 42)
	// Flip between the last read and the write: provably overwritten.
	if q := r.QueryBit(way0bit, 25); q.Verdict != LiveOverwritten {
		t.Fatalf("overwritten flip: %+v", q)
	}

	c.DetachLiveness()
	if r.Overflowed() != 0 {
		t.Fatalf("overflow on %d ways", r.Overflowed())
	}
}

func TestCacheLivenessCleanEviction(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)
	now = 10
	c.Read(0, 4) // clean line
	now = 30
	c.InvalidateAll()
	// Flip after the last read, before the clean eviction: discarded.
	if q := r.QueryBit(way0bit, 15); q.Verdict != LiveEvictedClean || !q.Valid {
		t.Fatalf("clean-evicted flip: %+v", q)
	}
	// Flip after the eviction: nothing lives there any more.
	if q := r.QueryBit(way0bit, 31); q.Verdict != LiveNeverRead {
		t.Fatalf("post-eviction flip: %+v", q)
	}
}

func TestCacheLivenessDirtyEvictionUndecided(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)
	now = 10
	c.Write(0, 4, 7) // fill + dirty
	now = 30
	c.FlushAll() // dirty writeback migrates the corruption below
	if q := r.QueryBit(way0bit, 20); q.Verdict != LiveUndecided || !q.Valid {
		t.Fatalf("dirty-evicted flip: %+v", q)
	}
}

func TestTLBLivenessVerdicts(t *testing.T) {
	var now uint64
	tlb := NewTLB("t", 4)
	r := tlb.AttachLiveness(&now)

	now = 10
	tlb.Insert(1, 0x40, true, false)
	// Find the entry the insert landed in.
	entry := -1
	for i := 0; i < tlb.Entries(); i++ {
		if tlb.EntryValid(i) {
			entry = i
		}
	}
	if entry < 0 {
		t.Fatal("insert left no valid entry")
	}
	ppnBit := uint64(entry)*TLBEntryBits + TLBPhysRegionStart

	// PPN flip with no later events: latent.
	if q := r.QueryBit(ppnBit, 11); q.Verdict != LiveLatent || !q.Valid {
		t.Fatalf("latent PPN flip: %+v", q)
	}
	now = 20
	if _, ok := tlb.Lookup(1); !ok {
		t.Fatal("lookup missed")
	}
	// The hit at 20 consumes the entry: undecided.
	if q := r.QueryBit(ppnBit, 11); q.Verdict != LiveUndecided {
		t.Fatalf("consumed PPN flip: %+v", q)
	}
	now = 30
	tlb.InvalidateAll()
	// Flip after the last hit, before the invalidation: discarded.
	if q := r.QueryBit(ppnBit, 25); q.Verdict != LiveEvictedClean {
		t.Fatalf("invalidated PPN flip: %+v", q)
	}

	// VPN and valid-bit flips change which entries match — never decided.
	vpnBit := uint64(entry) * TLBEntryBits
	validBit := uint64(entry)*TLBEntryBits + TLBPhysRegionStart + TLBPhysRegionBits - 1
	for _, b := range []uint64{vpnBit, validBit} {
		if q := r.QueryBit(b, 11); q.Verdict != LiveUndecided {
			t.Fatalf("bit %d decided: %+v", b, q)
		}
	}
}

// TestLifetimesStillDirtyAtEnd checks that a value still dirty when the
// window closes counts as ACE to the end, and a clean one to its last
// read.
func TestLifetimesStillDirtyAtEnd(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)
	now = 10
	c.Write(0, 4, 1) // dirty value in set 0 from 11
	now = 20
	c.Read(32, 4) // clean value in set 1 from 21, read at 21
	now = 40
	c.Read(32, 4) // last read at 41
	if l := r.Lifetimes(100); l.ACECycles != (100-11)+(41-21) {
		t.Fatalf("ACE = %d, want %d", l.ACECycles, (100-11)+(41-21))
	}
}

// TestLifetimesSurviveOverflow checks that the lifetime summary stays
// exact on a way whose event list overflowed.
func TestLifetimesSurviveOverflow(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)
	for now = 0; now < liveEventCap+100; now++ {
		c.Read(0, 4)
	}
	if r.Overflowed() != 1 {
		t.Fatalf("overflowed ways = %d, want 1", r.Overflowed())
	}
	now = 1 << 20
	c.InvalidateAll()
	// Filled at 1, last read at liveEventCap+100.
	if l := r.Lifetimes(now); l.ACECycles != liveEventCap+99 || l.Values != 1 || l.ValuesRead != 1 {
		t.Fatalf("lifetimes = %+v, want %d ACE cycles over 1/1 values", l, liveEventCap+99)
	}
}

// TestTLBLifetimes checks the TLB summary: an entry is ACE from its
// insert to its last hit, and a replacing insert closes it.
func TestTLBLifetimes(t *testing.T) {
	var now uint64
	tlb := NewTLB("t", 1)
	r := tlb.AttachLiveness(&now)
	now = 10
	tlb.Insert(1, 0x40, true, false) // value from 11
	now = 20
	tlb.Lookup(1) // read at 21
	now = 30
	tlb.Insert(2, 0x41, true, false) // replaces it at 31: ACE 21-11
	now = 40
	tlb.Lookup(1) // miss: no read
	if l := r.Lifetimes(50); l.ACECycles != 10 || l.Values != 2 || l.ValuesRead != 1 || l.Entries != 1 {
		t.Fatalf("lifetimes = %+v, want 10 ACE cycles over 2 values, 1 read", l)
	}
}
