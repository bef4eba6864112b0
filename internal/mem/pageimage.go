// Copy-on-write DRAM checkpoint images. A PageImage is an immutable,
// page-granular encoding of a DRAM state as "base image plus these
// replaced pages". Because it is never mutated after capture, one image
// is safely shared by every worker machine of a pool (and by every
// campaign of a daemon): each DRAM keeps only its private dirty-page
// bitmap as the copy-on-write overlay, and RestorePages re-copies just
// the pages a run actually touched instead of re-materialising the
// image. Consecutive checkpoints usually replace the same few pages with
// mostly-unchanged content, so capture additionally interns page payloads
// against the previous image — byte-verified, so sharing can never alter
// restored state.

package mem

import (
	"bytes"
	"math/bits"
	"sort"
)

// PageImage is one immutable DRAM checkpoint: the sorted set of pages
// whose content differs from the base image, with full-page payloads.
type PageImage struct {
	idx  []uint32 // page numbers, sorted ascending
	data [][]byte // payloads parallel to idx; may alias earlier images
	// fp is the image's complete per-page fingerprint set (true content
	// hashes, also for pages equal to base) and diff the bitmap of pages
	// whose fingerprint differs from the base's — both retained by
	// reference for the convergence fast path.
	fp   []uint64
	diff []uint64
	// owned / shared split the payload bytes into this image's own copies
	// and slices interned from a previous image.
	owned  int
	shared int
}

// page returns the payload replacing page p, if the image carries one.
func (img *PageImage) page(p uint32) ([]byte, bool) {
	i := sort.Search(len(img.idx), func(i int) bool { return img.idx[i] >= p })
	if i < len(img.idx) && img.idx[i] == p {
		return img.data[i], true
	}
	return nil, false
}

// Pages returns how many pages the image replaces.
func (img *PageImage) Pages() int { return len(img.idx) }

// Bytes returns the memory the image itself retains: owned payloads plus
// per-page bookkeeping. Interned payloads are counted by the image that
// owns them.
func (img *PageImage) Bytes() int { return img.owned + len(img.idx)*32 }

// SharedBytes returns the payload bytes this image shares with an
// earlier image instead of copying.
func (img *PageImage) SharedBytes() int { return img.shared }

// BuildPageImage captures the DRAM's current difference from base as an
// immutable page image. fp must be the DRAM's complete per-page
// fingerprints and diff the fingerprint-derived difference bitmap — both
// are retained by reference. With dirty-page tracking active against
// base, only pages that can deviate from it (dirtied pages, plus the
// last restored image's pages) are scanned; otherwise every page is.
// Page payloads byte-equal to the same page of prev are shared with it
// rather than copied.
func (d *DRAM) BuildPageImage(base []byte, fp, diff []uint64, prev *PageImage) *PageImage {
	img := &PageImage{fp: fp, diff: diff}
	n := len(d.data)
	npages := (n + PageBytes - 1) >> pageShift
	addPage := func(p int) {
		start := p << pageShift
		end := start + PageBytes
		if end > n {
			end = n
		}
		cur := d.data[start:end]
		if bytes.Equal(cur, base[start:end]) {
			return
		}
		img.idx = append(img.idx, uint32(p))
		if prev != nil {
			if pd, ok := prev.page(uint32(p)); ok && bytes.Equal(pd, cur) {
				img.data = append(img.data, pd)
				img.shared += len(pd)
				return
			}
		}
		img.data = append(img.data, append([]byte(nil), cur...))
		img.owned += len(cur)
	}
	if !d.Tracking(base) {
		for p := 0; p < npages; p++ {
			addPage(p)
		}
		return img
	}
	candidates := d.dirty
	if last := d.lastImg; last != nil {
		candidates = append([]uint64(nil), d.dirty...)
		for _, p := range last.idx {
			candidates[p>>6] |= 1 << (p & 63)
		}
	}
	for i, w := range candidates {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			addPage(i<<6 + b)
		}
	}
	return img
}

// RestorePages sets the DRAM's content to base with img's pages applied —
// the copy-on-write restore path. The first restore against a base copies
// the full image and starts dirty-page tracking; after that only three
// page sets are ever touched: the pages this DRAM dirtied since the last
// restore, and (on an image switch) the pages where the outgoing and
// incoming images deviate from base. Restoring the same image a worker
// already sits on — the rung-batched execution pattern — therefore costs
// only the run's own dirty pages.
func (d *DRAM) RestorePages(base []byte, img *PageImage) {
	copyPage := func(p uint32) {
		start := int(p) << pageShift
		end := start + PageBytes
		if end > len(d.data) {
			end = len(d.data)
		}
		if pd, ok := img.page(p); ok {
			copy(d.data[start:end], pd)
		} else {
			copy(d.data[start:end], base[start:end])
		}
	}
	if d.trackedBase != &base[0] {
		d.startTracking(base)
		for i, p := range img.idx {
			start := int(p) << pageShift
			copy(d.data[start:], img.data[i])
		}
		d.lastImg = img
		return
	}
	last := d.lastImg
	if last == img {
		for i := range d.dirty {
			w := d.dirty[i]
			if w == 0 {
				continue
			}
			d.dirty[i] = 0
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				copyPage(uint32(i<<6 + b))
			}
		}
		return
	}
	// Image switch: fix every dirtied page, then reconcile the pages the
	// two images deviate on. Where both images intern the identical
	// payload slice the content is already in place and the copy is
	// skipped — the cross-rung benefit of capture-time interning.
	wasDirty := func(p uint32) bool { return d.dirty[p>>6]&(1<<(p&63)) != 0 }
	li, ii := 0, 0
	var lastIdx []uint32
	if last != nil {
		lastIdx = last.idx
	}
	for li < len(lastIdx) || ii < len(img.idx) {
		var p uint32
		inLast, inImg := false, false
		switch {
		case ii >= len(img.idx) || (li < len(lastIdx) && lastIdx[li] < img.idx[ii]):
			p, inLast = lastIdx[li], true
			li++
		case li >= len(lastIdx) || img.idx[ii] < lastIdx[li]:
			p, inImg = img.idx[ii], true
			ii++
		default:
			p, inLast, inImg = lastIdx[li], true, true
			li++
			ii++
		}
		if wasDirty(p) {
			continue // handled by the dirty sweep below
		}
		if inLast && inImg && &last.data[li-1][0] == &img.data[ii-1][0] {
			continue // interned: byte-identical payload already in place
		}
		copyPage(p)
	}
	for i := range d.dirty {
		w := d.dirty[i]
		if w == 0 {
			continue
		}
		d.dirty[i] = 0
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			copyPage(uint32(i<<6 + b))
		}
	}
	d.lastImg = img
}

// startTracking copies base over the whole image and starts plain
// dirty-page tracking against it: no page dirty, no image applied.
func (d *DRAM) startTracking(base []byte) {
	copy(d.data, base)
	if d.dirty == nil {
		d.dirty = make([]uint64, (len(d.data)>>pageShift+63)/64)
	} else {
		clear(d.dirty)
	}
	d.trackedBase = &base[0]
	d.lastImg = nil
}

// Rebase sets the DRAM's content to base and leaves plain dirty-page
// tracking armed against it, so later page-image captures and convergence
// checks touch only the pages written from here on. The first call
// against a base copies the full image; later calls copy back only the
// dirtied pages and the pages of the image RestorePages last applied.
func (d *DRAM) Rebase(base []byte) {
	if d.trackedBase != &base[0] {
		d.startTracking(base)
		return
	}
	revert := func(p int) {
		start := p << pageShift
		end := min(start+PageBytes, len(d.data))
		copy(d.data[start:end], base[start:end])
	}
	if last := d.lastImg; last != nil {
		for _, p := range last.idx {
			revert(int(p))
		}
		d.lastImg = nil
	}
	for i, w := range d.dirty {
		d.dirty[i] = 0
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			revert(i<<6 + b)
		}
	}
}

// EqualBasePages reports whether the DRAM's current content equals base
// with img applied, byte-exactly, without materialising the patched
// image — the non-tracking fallback of the ladder's convergence check.
func (d *DRAM) EqualBasePages(base []byte, img *PageImage) bool {
	prev := 0
	for i, p := range img.idx {
		start := int(p) << pageShift
		end := start + len(img.data[i])
		if !bytes.Equal(d.data[prev:start], base[prev:start]) {
			return false
		}
		if !bytes.Equal(d.data[start:end], img.data[i]) {
			return false
		}
		prev = end
	}
	return bytes.Equal(d.data[prev:], base[prev:])
}
