package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// captureImage snapshots d's current divergence from base as a PageImage
// the way the checkpoint ladder does: fingerprint pages, diff against the
// base fingerprints, build.
func captureImage(d *DRAM, base []byte, basePF []uint64, prev *PageImage) *PageImage {
	var fp []uint64
	if d.Tracking(base) {
		fp = d.HashPagesDirty(basePF)
	} else {
		fp = d.HashPages(nil)
	}
	return d.BuildPageImage(base, fp, DiffPageBitmap(basePF, fp), prev)
}

// TestRestorePagesBitIdentity pins the copy-on-write restore contract:
// whatever sequence of restores and interleaved writes runs, RestorePages
// must leave exactly base+image behind, bit for bit.
func TestRestorePagesBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dram := NewDRAM(1 << 18)
	scribble(dram, rng, 150)
	base := append([]byte(nil), dram.data...)
	basePF := HashPages(base, nil)

	// Two checkpoint images over diverging content, the second interning
	// against the first.
	scribble(dram, rng, 60)
	imgA := captureImage(dram, base, basePF, nil)
	scribble(dram, rng, 60)
	imgB := captureImage(dram, base, basePF, imgA)

	wantA, wantB := withImage(base, imgA), withImage(base, imgB)

	// Cold restore, same-image re-restores, and image switches, each with
	// writes in between so the dirty overlay has work to do.
	seq := []struct {
		img  *PageImage
		want []byte
	}{{imgA, wantA}, {imgA, wantA}, {imgB, wantB}, {imgB, wantB}, {imgA, wantA}, {imgB, wantB}}
	for round, s := range seq {
		dram.RestorePages(base, s.img)
		if !bytes.Equal(dram.data, s.want) {
			t.Fatalf("round %d: restored image differs from base+pages", round)
		}
		if !dram.EqualBasePages(base, s.img) {
			t.Fatalf("round %d: EqualBasePages disagrees with bytes.Equal", round)
		}
		scribble(dram, rng, 30)
	}

	// The interned image shares payload bytes with its predecessor and
	// accounts them as shared, not owned.
	if imgB.SharedBytes() == 0 {
		t.Error("consecutive checkpoints shared no page payloads")
	}
	if imgA.Bytes() == 0 || imgA.Pages() == 0 {
		t.Errorf("image accounting empty: %d bytes %d pages", imgA.Bytes(), imgA.Pages())
	}
}

// TestRestorePagesThenRebase pins the transition from copy-on-write
// image tracking back to plain tracking: Rebase after a RestorePages
// must revert the image's pages too, not just the dirty ones, and a
// later RestorePages must again leave exactly base+image behind.
func TestRestorePagesThenRebase(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dram := NewDRAM(1 << 18)
	scribble(dram, rng, 100)
	base := append([]byte(nil), dram.data...)
	basePF := HashPages(base, nil)

	scribble(dram, rng, 50)
	img := captureImage(dram, base, basePF, nil)

	dram.RestorePages(base, img)
	scribble(dram, rng, 20)
	dram.Rebase(base)
	if !bytes.Equal(dram.data, base) {
		t.Fatal("rebase after RestorePages left image pages behind")
	}
	scribble(dram, rng, 20)
	dram.RestorePages(base, img)
	if !bytes.Equal(dram.data, withImage(base, img)) {
		t.Fatal("image restore after Rebase diverges from base+image")
	}
}

// TestConvergedPagesWithImage checks golden-convergence detection while a
// restored image is in place: content equal to base+image's own rung must
// NOT be mistaken for converged-to-base, and genuinely reverting to base
// content must be.
func TestConvergedPagesWithImage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dram := NewDRAM(1 << 18)
	scribble(dram, rng, 100)
	base := append([]byte(nil), dram.data...)
	basePF := HashPages(base, nil)

	scribble(dram, rng, 50)
	img := captureImage(dram, base, basePF, nil)
	dram.RestorePages(base, img)

	if img.Pages() > 0 && dram.ConvergedPages(DiffPageBitmap(basePF, basePF), basePF) {
		t.Fatal("image content counted as converged to base")
	}
	// Revert the image's pages to base content through the write path: the
	// pages go dirty, rehash equal to base, and convergence must hold.
	for i, p := range img.idx {
		start := int(p) << pageShift
		for off := 0; off < len(img.data[i]); off += 32 {
			dram.WriteLine(uint32(start+off), base[start+off:start+off+32])
		}
	}
	if !dram.ConvergedPages(DiffPageBitmap(basePF, basePF), basePF) {
		t.Fatal("base content not detected as converged while image set")
	}
}
