package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

func liveSum(fold func(*Hasher, bool)) uint64 {
	h := NewHasher()
	fold(h, true)
	return h.Sum()
}

// TestCacheWalkFoldsLRURanks pins the shift-invariant LRU fold: the same
// recency order under shifted stamps and clock folds equal, a different
// order within a set does not.
func TestCacheWalkFoldsLRURanks(t *testing.T) {
	cfg := CacheConfig{Name: "c", SizeBytes: 1 << 10, LineBytes: 32, Ways: 4, HitCycles: 1}
	c := NewCache(cfg, NewBus(NewDRAM(1<<16)))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		c.Read(uint32(rng.Intn(1<<13))&^3, 4)
	}
	base := liveSum(c.HashLive)

	st := c.SaveState()
	for s := range c.lines {
		for w := range c.lines[s] {
			c.lines[s][w].lru = c.lines[s][w].lru*3 + 1_000_000 // order-preserving
		}
	}
	c.tick = c.tick*3 + 1_000_000
	if got := liveSum(c.HashLive); got != base {
		t.Fatalf("order-preserving restamp folds %#x, want %#x", got, base)
	}

	c.RestoreState(st)
	set := c.lines[0]
	for w := range set {
		if !set[w].valid {
			t.Fatal("set 0 not full")
		}
	}
	set[0].lru, set[1].lru = set[1].lru, set[0].lru
	if liveSum(c.HashLive) == base {
		t.Fatal("swapped recency order folds equal")
	}
}

// TestTLBWalkFoldsLRURanks is TestCacheWalkFoldsLRURanks for the fully
// associative TLB.
func TestTLBWalkFoldsLRURanks(t *testing.T) {
	tlb := NewTLB("dtlb", 8)
	for vpn := uint32(0); vpn < 8; vpn++ {
		tlb.Insert(vpn, vpn+100, true, true)
	}
	for _, vpn := range []uint32{3, 1, 6} {
		tlb.Lookup(vpn)
	}
	base := liveSum(tlb.HashLive)

	for i := range tlb.entries {
		tlb.entries[i].lru += 500
	}
	tlb.tick += 500
	if got := liveSum(tlb.HashLive); got != base {
		t.Fatalf("shifted stamps fold %#x, want %#x", got, base)
	}
	tlb.entries[2].lru, tlb.entries[5].lru = tlb.entries[5].lru, tlb.entries[2].lru
	if liveSum(tlb.HashLive) == base {
		t.Fatal("swapped recency order folds equal")
	}
}

// TestImageHasherExact pins the exact image: two walks give equal images
// only for equal value sequences — a change in a value, in a byte-slice's
// content or in its length shows — and appending the image leaves the
// hash unchanged.
func TestImageHasherExact(t *testing.T) {
	walk := func(v uint64, tail []byte) (uint64, []byte) {
		var img []byte
		h := NewImageHasher(&img)
		h.Word(v)
		h.Word32(uint32(v))
		h.Bool(v&1 == 1)
		h.Bytes(tail)
		return h.Sum(), img
	}
	sum, ref := walk(41, []byte("abc"))
	if len(ref) != 8+4+1+8+3 {
		t.Fatalf("image is %d bytes", len(ref))
	}
	plain := NewHasher()
	plain.Word(41)
	plain.Word32(41)
	plain.Bool(true)
	plain.Bytes([]byte("abc"))
	if plain.Sum() != sum {
		t.Error("the image changed the hash")
	}
	for _, tc := range []struct {
		v    uint64
		tail []byte
		want bool
	}{
		{41, []byte("abc"), true},
		{43, []byte("abc"), false},
		{41, []byte("abd"), false},
		{41, []byte("ab"), false},
		{41, []byte("abcd"), false},
	} {
		if _, img := walk(tc.v, tc.tail); bytes.Equal(img, ref) != tc.want {
			t.Errorf("walk %d %q: images equal %v, want %v", tc.v, tc.tail, !tc.want, tc.want)
		}
	}
}

// TestCheckHasherMatchesImage pins the streamed comparison: a checking
// walk matches a recorded image exactly when recording it again would
// give equal bytes — across window boundaries, and not for a walk that
// stops early or runs on.
func TestCheckHasherMatchesImage(t *testing.T) {
	line := make([]byte, 32)
	walk := func(h *Hasher, lines int, flip int) {
		for i := 0; i < lines; i++ {
			h.Word32(uint32(i))
			h.Bool(i%3 == 0)
			line[0] = byte(i)
			if i == flip {
				line[5] ^= 1
			}
			h.Bytes(line)
			line[5] = 0
		}
	}
	var ref []byte
	walk(NewImageHasher(&ref), 1000, -1)
	if len(ref) < 4*checkWindow {
		t.Fatalf("image of %d bytes spans too few windows", len(ref))
	}
	var window []byte
	for _, tc := range []struct {
		lines, flip int
		want        bool
	}{
		{1000, -1, true},
		{1000, 0, false},
		{1000, 500, false},
		{1000, 999, false},
		{999, -1, false},
		{1001, -1, false},
	} {
		h := NewCheckHasher(ref, &window)
		walk(h, tc.lines, tc.flip)
		if got := h.Matches(); got != tc.want {
			t.Errorf("%d lines, flip %d: matches %v, want %v", tc.lines, tc.flip, got, tc.want)
		}
		if cap(window) > 2*checkWindow {
			t.Errorf("window grew to %d bytes", cap(window))
		}
	}
}

// TestSaveDirtySameDirty pins the proof's DRAM comparison: unchanged
// dirty pages match, a changed byte or a newly dirtied page does not.
func TestSaveDirtySameDirty(t *testing.T) {
	base := make([]byte, 64<<10)
	d := NewDRAM(uint32(len(base)))
	d.Rebase(base)
	d.Poke(0x1004, 7)
	d.Poke(0x3ffc, 9)
	bm, pages := d.SaveDirty(nil, nil)
	if len(pages) != 2*PageBytes {
		t.Fatalf("saved %d bytes, want two pages", len(pages))
	}
	if !d.SameDirty(bm, pages) {
		t.Fatal("unchanged DRAM does not match its own copy")
	}
	d.Poke(0x1004, 8)
	if d.SameDirty(bm, pages) {
		t.Fatal("changed dirty page matches")
	}
	d.Poke(0x1004, 7)
	if !d.SameDirty(bm, pages) {
		t.Fatal("restored byte does not match")
	}
	d.Poke(0x8000, 0)
	if d.SameDirty(bm, pages) {
		t.Fatal("newly dirtied page matches")
	}
}
