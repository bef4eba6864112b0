// State fingerprinting for the checkpoint ladder. The Hasher gives every
// machine structure a cheap way to fold its live content into a single
// 64-bit fingerprint; HashLive on caches and TLBs deliberately skips
// *dead* state (content of invalid lines/entries, which is overwritten
// before any read) so that a fault flipped into dead state still
// fingerprints equal to the golden run once the live state has
// re-converged. DRAM is fingerprinted per page, so the convergence check
// rehashes only the pages a run dirtied.

package mem

import (
	"encoding/binary"
	"math/bits"
)

// FNV-1a constants, applied word-at-a-time rather than byte-at-a-time so
// hashing a full DRAM image costs one multiply per 8 bytes.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Hasher folds machine state into a 64-bit fingerprint. It is not
// cryptographic; it only needs to make accidental collisions between a
// diverged and a converged machine state astronomically unlikely.
type Hasher struct {
	h uint64
}

// NewHasher returns a Hasher at the canonical initial state.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset} }

// mix folds one word into an accumulator: an FNV step followed by a
// rotation. A multiply mod 2^64 only carries a difference upward, so
// without the rotation a flip at bit k of an input changes only bits >= k
// of the state, and two bit-63 flips in different words cancel exactly.
// The rotation moves high bits down, where the next multiply spreads them.
func mix(h, v uint64) uint64 { return bits.RotateLeft64((h^v)*fnvPrime, 29) }

// Word mixes one 64-bit value.
func (s *Hasher) Word(v uint64) { s.h = mix(s.h, v) }

// Word32 mixes one 32-bit value.
func (s *Hasher) Word32(v uint32) { s.Word(uint64(v)) }

// Bool mixes a boolean.
func (s *Hasher) Bool(b bool) {
	if b {
		s.Word(1)
	} else {
		s.Word(0)
	}
}

// Bytes lane seeds: arbitrary odd constants that give the four parallel
// accumulators distinct starting points.
const (
	laneSeed1 uint64 = 0x9E3779B97F4A7C15
	laneSeed2 uint64 = 0xC2B2AE3D27D4EB4F
	laneSeed3 uint64 = 0x165667B19E3779F9
)

// Bytes mixes a byte slice, length-prefixed so concatenations of different
// slices cannot alias. Large slices fold through four independent
// lanes whose multiplies overlap in the pipeline — the serial
// word-at-a-time loop is latency-bound on one 64-bit multiply per 8
// bytes — and the lane sums fold back into the running state. The result
// is deterministic but not the serial Word value; fingerprints are only
// ever compared against fingerprints computed the same way, so only
// collision resistance matters.
func (s *Hasher) Bytes(b []byte) {
	s.Word(uint64(len(b)))
	i := 0
	if len(b) >= 128 {
		h0, h1, h2, h3 := s.h, s.h^laneSeed1, s.h^laneSeed2, s.h^laneSeed3
		for ; i+32 <= len(b); i += 32 {
			h0 = mix(h0, binary.LittleEndian.Uint64(b[i:]))
			h1 = mix(h1, binary.LittleEndian.Uint64(b[i+8:]))
			h2 = mix(h2, binary.LittleEndian.Uint64(b[i+16:]))
			h3 = mix(h3, binary.LittleEndian.Uint64(b[i+24:]))
		}
		s.Word(h0)
		s.Word(h1)
		s.Word(h2)
		s.Word(h3)
	}
	for ; i+8 <= len(b); i += 8 {
		s.Word(binary.LittleEndian.Uint64(b[i:]))
	}
	if i < len(b) {
		var tail uint64
		for j := 0; i < len(b); i, j = i+1, j+8 {
			tail |= uint64(b[i]) << j
		}
		s.Word(tail)
	}
}

// Sum returns the fingerprint accumulated so far.
func (s *Hasher) Sum() uint64 { return s.h }

// PageBytes is the dirty-tracking granule (4 KiB), exported for the
// checkpoint ladder's per-page golden fingerprints.
const PageBytes = 1 << pageShift

// pageHash fingerprints one page with a fresh hasher state.
func pageHash(page []byte) uint64 {
	h := Hasher{h: fnvOffset}
	h.Bytes(page)
	return h.Sum()
}

// HashPages appends one fingerprint per PageBytes page of img to dst and
// returns the extended slice. The last page may be short.
func HashPages(img []byte, dst []uint64) []uint64 {
	for p := 0; p < len(img); p += PageBytes {
		end := p + PageBytes
		if end > len(img) {
			end = len(img)
		}
		dst = append(dst, pageHash(img[p:end]))
	}
	return dst
}

// HashPages appends the DRAM's per-page fingerprints to dst.
func (d *DRAM) HashPages(dst []uint64) []uint64 { return HashPages(d.data, dst) }

// HashPagesDirty returns the DRAM's per-page fingerprints like HashPages,
// but re-hashes only the pages written since the last restore and
// reuses basePF — the tracked base image's fingerprints — for the rest.
// The caller must ensure Tracking(base) holds for the base basePF was
// computed from: unmarked pages are then byte-identical to it.
func (d *DRAM) HashPagesDirty(basePF []uint64) []uint64 {
	out := append([]uint64(nil), basePF...)
	for i, w := range d.dirty {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			p := i<<6 + b
			start := p << pageShift
			end := start + PageBytes
			if end > len(d.data) {
				end = len(d.data)
			}
			out[p] = pageHash(d.data[start:end])
		}
	}
	return out
}

// Tracking reports whether dirty-page tracking is active against base:
// every page not marked dirty is then byte-identical to base.
func (d *DRAM) Tracking(base []byte) bool {
	return len(base) > 0 && d.trackedBase == &base[0]
}

// ConvergedPages reports whether the DRAM's current content equals a
// golden image described by diffPages (the exact bitmap of pages where
// the golden image differs from the tracked base) and pageFP (the golden
// image's per-page fingerprints), touching only the pages dirtied since
// the last restore. The caller must ensure Tracking(base) holds for the
// base both arguments were computed against. Under plain tracking a
// non-dirty page is byte-identical to base, so a golden-differs page that
// is not dirty proves divergence outright; under copy-on-write restore a
// non-dirty page holds lastImg's content, whose true fingerprint is
// lastImg.fp — the fingerprint sets are compared directly wherever either
// side deviates from base. Only dirty pages need rehashing either way.
func (d *DRAM) ConvergedPages(diffPages, pageFP []uint64) bool {
	last := d.lastImg
	for i, w := range d.dirty {
		if last != nil {
			// Non-dirty pages hold lastImg content: any page where either
			// image deviates from base must have matching fingerprints.
			for cand := (last.diff[i] | diffPages[i]) &^ w; cand != 0; {
				b := bits.TrailingZeros64(cand)
				cand &^= 1 << b
				p := i<<6 + b
				if last.fp[p] != pageFP[p] {
					return false
				}
			}
		} else if diffPages[i]&^w != 0 {
			return false
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			p := i<<6 + b
			start := p << pageShift
			end := start + PageBytes
			if end > len(d.data) {
				end = len(d.data)
			}
			if pageHash(d.data[start:end]) != pageFP[p] {
				return false
			}
		}
	}
	return true
}

// DiffPageBitmap returns the bitmap (one bit per page, 64 pages per word)
// of pages whose fingerprints differ between two per-page fingerprint
// sets of equal length.
func DiffPageBitmap(a, b []uint64) []uint64 {
	bm := make([]uint64, (len(a)+63)/64)
	for p := range a {
		if a[p] != b[p] {
			bm[p>>6] |= 1 << (p & 63)
		}
	}
	return bm
}

// HashLive mixes the cache's live state into h: a line-validity bitmap,
// then tag/dirty/lru/data of each valid line, then the LRU tick. Content
// of invalid lines is dead — fill() overwrites tag, dirty, and data before
// any read, and victim() returns invalid ways before consulting lru — so
// it is excluded, letting faults flipped into invalid lines fingerprint as
// converged. Event counters are excluded: they never feed back into the
// data path or the campaign Result.
func (c *Cache) HashLive(h *Hasher) {
	var bm uint64
	nbit := 0
	for s := range c.lines {
		for w := range c.lines[s] {
			if c.lines[s][w].valid {
				bm |= 1 << nbit
			}
			if nbit++; nbit == 64 {
				h.Word(bm)
				bm, nbit = 0, 0
			}
		}
	}
	if nbit > 0 {
		h.Word(bm)
	}
	for s := range c.lines {
		for w := range c.lines[s] {
			ln := &c.lines[s][w]
			if !ln.valid {
				continue
			}
			h.Word32(ln.tag)
			h.Bool(ln.dirty)
			h.Word(ln.lru)
			h.Bytes(ln.data)
		}
	}
	h.Word(c.tick)
}

// HashLive mixes the TLB's live state into h: an entry-validity bitmap,
// then bits/lru of each valid entry, then the LRU tick. Invalid entries'
// translation bits and lru are dead state (Insert fully overwrites the
// victim entry and prefers invalid victims unconditionally) and are
// excluded; a fault that flips the valid bit itself changes the bitmap and
// is caught.
func (t *TLB) HashLive(h *Hasher) {
	var bm uint64
	nbit := 0
	for i := range t.entries {
		if t.entries[i].Valid() {
			bm |= 1 << nbit
		}
		if nbit++; nbit == 64 {
			h.Word(bm)
			bm, nbit = 0, 0
		}
	}
	if nbit > 0 {
		h.Word(bm)
	}
	for i := range t.entries {
		if !t.entries[i].Valid() {
			continue
		}
		h.Word(t.entries[i].bits)
		h.Word(t.entries[i].lru)
	}
	h.Word(t.tick)
}
