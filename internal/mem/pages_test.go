package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// scribble writes pseudo-random runs into d through its public write
// paths, so dirty-page tracking sees every mutation.
func scribble(d *DRAM, rng *rand.Rand, writes int) {
	line := make([]byte, 32)
	for i := 0; i < writes; i++ {
		rng.Read(line)
		addr := uint32(rng.Intn(int(d.Size())-len(line))) &^ 31
		d.WriteLine(addr, line)
	}
}

// withImage returns base with img's pages applied: what RestorePages must
// leave behind.
func withImage(base []byte, img *PageImage) []byte {
	out := append([]byte(nil), base...)
	for i, p := range img.idx {
		copy(out[int(p)<<pageShift:], img.data[i])
	}
	return out
}

// TestHasherHighBitFlips pins the fingerprint against the collision the
// checkpoint ladder once hit: inputs that differ only in bit 63 of two
// words must not hash equal, through Word and through every Bytes lane.
func TestHasherHighBitFlips(t *testing.T) {
	const hi = uint64(1) << 63
	a, b := NewHasher(), NewHasher()
	a.Word(0x1234)
	a.Word(0x5678)
	b.Word(0x1234 ^ hi)
	b.Word(0x5678 ^ hi)
	if a.Sum() == b.Sum() {
		t.Fatal("Word: two bit-63 flips cancel")
	}
	buf := make([]byte, 256)
	rand.New(rand.NewSource(1)).Read(buf)
	for lane := 0; lane < 4; lane++ {
		other := append([]byte(nil), buf...)
		for _, off := range []int{8 * lane, 8*lane + 32} { // one lane, two rounds
			binary.LittleEndian.PutUint64(other[off:], binary.LittleEndian.Uint64(other[off:])^hi)
		}
		x, y := NewHasher(), NewHasher()
		x.Bytes(buf)
		y.Bytes(other)
		if x.Sum() == y.Sum() {
			t.Fatalf("Bytes lane %d: two bit-63 flips cancel", lane)
		}
	}
}

// TestRebasePageBoundaryWrites pins the dirty-tracking invariant at page
// edges: a write that straddles a page boundary must mark both pages, or
// the tracked rebase leaves stale bytes behind in the page that was
// missed.
func TestRebasePageBoundaryWrites(t *testing.T) {
	dram := NewDRAM(4 * PageBytes)
	rng := rand.New(rand.NewSource(7))
	scribble(dram, rng, 40)
	base := append([]byte(nil), dram.data...)

	// Establish tracking: content == base, no dirty pages.
	dram.Rebase(base)
	if !dram.Tracking(base) {
		t.Fatal("tracking not established by Rebase")
	}

	line := make([]byte, 32)
	for i := range line {
		line[i] = 0xA5
	}
	writes := []uint32{
		0,                       // first bytes of page 0
		PageBytes - 16,          // straddles the page 0/1 boundary
		2*PageBytes - 4,         // last word of page 1 via Poke
		uint32(len(base)) - 32,  // last line of the last page
		3*PageBytes - uint32(8), // straddle into the final page
	}
	for _, a := range writes {
		if a == 2*PageBytes-4 {
			dram.Poke(a, 0xDEADBEEF)
			continue
		}
		if !dram.WriteLine(a, line) {
			t.Fatalf("WriteLine(%#x) failed", a)
		}
	}

	// The tracked rebase copies back only dirty pages; any page missed by
	// markDirty would keep the 0xA5 bytes.
	dram.Rebase(base)
	if !bytes.Equal(dram.data, base) {
		t.Fatal("tracked rebase left stale bytes after page-boundary writes")
	}
}

// TestRebaseTracked pins the plain-tracking fast path: repeated rebases
// against the same base, interleaved with writes through every DRAM
// mutation path and with page-image restores, must leave exactly base
// behind each time; switching to a new base must drop tracking and still
// restore exactly.
func TestRebaseTracked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dram := NewDRAM(1 << 18)
	scribble(dram, rng, 200)
	base := append([]byte(nil), dram.data...)
	basePF := HashPages(base, nil)
	scribble(dram, rng, 100)
	img := captureImage(dram, base, basePF, nil)

	for round := 0; round < 4; round++ {
		dram.Rebase(base)
		if !bytes.Equal(dram.data, base) {
			t.Fatalf("round %d: tracked rebase diverged from a full copy", round)
		}
		// Dirty the machine through each write path before the next
		// rebase, including one full-image load (marks everything) and
		// one image restore.
		scribble(dram, rng, 50)
		dram.Poke(64, rng.Uint32())
		switch round {
		case 1:
			dram.RestorePages(base, img)
		case 2:
			full := make([]byte, dram.Size())
			rng.Read(full)
			if err := dram.LoadImage(0, full); err != nil {
				t.Fatal(err)
			}
		}
	}

	base2 := append([]byte(nil), dram.data...)
	scribble(dram, rng, 50)
	dram.Rebase(base2)
	if !bytes.Equal(dram.data, base2) || !dram.Tracking(base2) || dram.Tracking(base) {
		t.Fatal("rebase onto a new base diverged or kept the old tracking")
	}
}

// TestRestorePagesEdgePages exercises images whose pages sit at the very
// start and end of the DRAM, including writes that cross page boundaries,
// through an untracked first restore and repeated tracked ones.
func TestRestorePagesEdgePages(t *testing.T) {
	dram := NewDRAM(4 * PageBytes)
	rng := rand.New(rand.NewSource(8))
	scribble(dram, rng, 40)
	base := append([]byte(nil), dram.data...)
	basePF := HashPages(base, nil)

	// Golden content whose differing pages hit the edges.
	line := make([]byte, 32)
	rng.Read(line)
	dram.WriteLine(0, line)
	rng.Read(line)
	dram.WriteLine(PageBytes-16, line) // crosses page 0/1
	rng.Read(line)
	dram.WriteLine(dram.Size()-32, line) // final bytes of the image
	img := captureImage(dram, base, basePF, nil)
	if img.Pages() != 3 {
		t.Fatalf("image holds %d pages, want 3", img.Pages())
	}
	want := withImage(base, img)

	dram2 := NewDRAM(4 * PageBytes)
	for round := 0; round < 3; round++ {
		dram2.RestorePages(base, img)
		if !bytes.Equal(dram2.data, want) {
			t.Fatalf("round %d: edge-page restore diverged", round)
		}
		scribble(dram2, rng, 30)
		dram2.Poke(PageBytes, rng.Uint32())
	}
}

// TestEqualBasePages pins the exact comparison the convergence
// cross-check relies on: a flip inside one of the image's pages and a
// flip in a page equal to base must both be seen.
func TestEqualBasePages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dram := NewDRAM(1 << 16)
	scribble(dram, rng, 80)
	base := append([]byte(nil), dram.data...)
	basePF := HashPages(base, nil)
	dram.Poke(PageBytes+8, dram.Peek(PageBytes+8)^0xFF) // page 1 differs from base
	img := captureImage(dram, base, basePF, nil)

	if !dram.EqualBasePages(base, img) {
		t.Fatal("content must equal its own base+image")
	}
	inImg := uint32(PageBytes + 100)
	dram.data[inImg] ^= 0x40
	if dram.EqualBasePages(base, img) {
		t.Fatal("divergence inside an image page not detected")
	}
	dram.data[inImg] ^= 0x40
	inBase := uint32(3*PageBytes + 7)
	if _, ok := img.page(inBase >> pageShift); ok {
		t.Fatal("test page unexpectedly carried by the image")
	}
	dram.data[inBase] ^= 0x01
	if dram.EqualBasePages(base, img) {
		t.Fatal("divergence in a base page not detected")
	}
}

// TestConvergedPagesMatchesExact is the correctness property the ladder's
// fast path rests on: for tracked DRAM, the incremental dirty-page
// verdict must agree with the exact EqualBasePages comparison (modulo
// page-hash collisions, which the fixed seeds below do not hit) — under
// plain tracking after a rebase and under an applied page image alike.
func TestConvergedPagesMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dram := NewDRAM(16 * PageBytes)
	scribble(dram, rng, 100)
	base := append([]byte(nil), dram.data...)
	basePF := HashPages(base, nil)

	// A golden image and its per-page fingerprints.
	scribble(dram, rng, 60)
	golden := captureImage(dram, base, basePF, nil)
	goldenPF := dram.HashPages(nil)
	diffPages := DiffPageBitmap(basePF, goldenPF)

	check := func(what string) {
		t.Helper()
		inc := dram.ConvergedPages(diffPages, goldenPF)
		full := dram.EqualBasePages(base, golden)
		if inc != full {
			t.Fatalf("%s: incremental verdict %v != exact verdict %v", what, inc, full)
		}
	}

	// Converged: restore exactly to golden.
	dram.RestorePages(base, golden)
	check("restored to golden")
	if !dram.ConvergedPages(diffPages, goldenPF) {
		t.Fatal("restored-to-golden state must report converged")
	}

	// Diverged in a dirty page: the rehash catches it.
	dram.Poke(0, dram.Peek(0)^1)
	check("flip inside a dirty page")

	// Restore to base only: golden-differs pages are now clean, so the
	// bitmap check alone proves divergence without hashing anything.
	dram.Rebase(base)
	check("restored to base with golden != base")
	if dram.ConvergedPages(diffPages, goldenPF) {
		t.Fatal("base-only content must not report converged to golden")
	}

	// Randomized agreement sweep: partial restores and scribbles.
	for i := 0; i < 50; i++ {
		if i%7 == 0 {
			dram.RestorePages(base, golden)
		} else if i%11 == 0 {
			dram.Rebase(base)
		}
		scribble(dram, rng, rng.Intn(8))
		check("randomized sweep")
	}
}

// TestHashPagesAndDiffBitmap pins the page-fingerprint plumbing: one
// fingerprint per page including a short final page, and bitmap bits set
// exactly where pages differ.
func TestHashPagesAndDiffBitmap(t *testing.T) {
	img := make([]byte, 3*PageBytes+100) // short trailing page
	rng := rand.New(rand.NewSource(10))
	rng.Read(img)
	pf := HashPages(img, nil)
	if len(pf) != 4 {
		t.Fatalf("HashPages returned %d fingerprints, want 4", len(pf))
	}
	other := append([]byte(nil), img...)
	other[PageBytes+5] ^= 0x10        // page 1
	other[3*PageBytes+99] ^= 0x01     // short page 3
	pf2 := HashPages(other, pf[:0:0]) // fresh dst
	bm := DiffPageBitmap(pf, pf2)
	if want := uint64(1<<1 | 1<<3); bm[0] != want {
		t.Fatalf("DiffPageBitmap = %#x, want %#x", bm[0], want)
	}
	// Appending into a reused dst extends rather than overwrites.
	both := HashPages(img, pf2)
	if len(both) != 8 || both[0] != pf2[0] {
		t.Fatalf("HashPages append semantics broken: len=%d", len(both))
	}
}

// TestDirtyCaptureMatchesFullScan pins the tracked capture paths to their
// full-scan counterparts: with dirty-page tracking armed, BuildPageImage
// must emit page-for-page the image an untracked full scan builds, and
// HashPagesDirty the fingerprints HashPages computes — on every round of
// a randomized write workload, including a short trailing page.
func TestDirtyCaptureMatchesFullScan(t *testing.T) {
	// A size that is not page-aligned exercises the last-page clamps.
	dram := NewDRAM(6*PageBytes - 100)
	rng := rand.New(rand.NewSource(23))
	scribble(dram, rng, 30)
	base := append([]byte(nil), dram.data...)
	basePF := HashPages(base, nil)
	dram.Rebase(base)
	untracked := NewDRAM(dram.Size())

	for round := 0; round < 30; round++ {
		switch rng.Intn(4) {
		case 0:
			scribble(dram, rng, 1+rng.Intn(8))
		case 1:
			// Straddle a page boundary.
			p := uint32(1+rng.Intn(4)) * PageBytes
			dram.Poke(p-2, rng.Uint32())
		case 2:
			// Touch the short final page.
			dram.Poke(dram.Size()-4, rng.Uint32())
		case 3:
			// Write a page back to its base content: the page stays
			// dirty but must not enter the image.
			p := uint32(rng.Intn(5)) * PageBytes
			for off := uint32(0); off < PageBytes; off += 32 {
				dram.WriteLine(p+off, base[p+off:p+off+32])
			}
		}

		wantPF := dram.HashPages(nil)
		gotPF := dram.HashPagesDirty(basePF)
		if len(wantPF) != len(gotPF) {
			t.Fatalf("round %d: page fingerprint count %d != %d", round, len(gotPF), len(wantPF))
		}
		for p := range wantPF {
			if wantPF[p] != gotPF[p] {
				t.Fatalf("round %d: page %d fingerprint mismatch", round, p)
			}
		}

		diff := DiffPageBitmap(basePF, wantPF)
		copy(untracked.data, dram.data)
		want := untracked.BuildPageImage(base, wantPF, diff, nil)
		got := dram.BuildPageImage(base, gotPF, diff, nil)
		if len(want.idx) != len(got.idx) {
			t.Fatalf("round %d: tracked capture holds %d pages, full scan %d", round, len(got.idx), len(want.idx))
		}
		for i := range want.idx {
			if want.idx[i] != got.idx[i] || !bytes.Equal(want.data[i], got.data[i]) {
				t.Fatalf("round %d: image page %d differs: tracked page %d, full scan page %d",
					round, i, got.idx[i], want.idx[i])
			}
		}
	}
}
