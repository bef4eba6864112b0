package mem

import "testing"

func benchCache(b *testing.B) *Cache {
	b.Helper()
	dram := NewDRAM(1 << 20)
	bus := NewBus(dram)
	return NewCache(CacheConfig{Name: "c", SizeBytes: 32 << 10, LineBytes: 32, Ways: 4, HitCycles: 1}, bus)
}

// BenchmarkCacheHit measures the simulator's hot cache-access path.
func BenchmarkCacheHit(b *testing.B) {
	c := benchCache(b)
	c.Read(64, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(64, 4)
	}
}

// BenchmarkCacheMissStream measures fill/evict throughput on a streaming
// access pattern.
func BenchmarkCacheMissStream(b *testing.B) {
	c := benchCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint32(i*32)&0xFFFFF, 4)
	}
}

// BenchmarkTLBLookup measures the translation hot path.
func BenchmarkTLBLookup(b *testing.B) {
	t := NewTLB("t", 64)
	for v := uint32(0); v < 64; v++ {
		t.Insert(v, v, true, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(uint32(i) & 63)
	}
}

// BenchmarkSnapshotRestore measures the checkpoint-restore cost that every
// injection run pays.
func BenchmarkSnapshotRestore(b *testing.B) {
	c := benchCache(b)
	for a := uint32(0); a < 32<<10; a += 32 {
		c.Write(a, 4, a)
	}
	st := c.SaveState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RestoreState(st)
	}
}

// BenchmarkHasherBytes measures fingerprint throughput across the size
// classes the machine hashes: a cache line, one page, and a full DRAM
// image (where the four-lane fold dominates).
func BenchmarkHasherBytes(b *testing.B) {
	for _, size := range []int{32, 4096, 4 << 20} {
		buf := make([]byte, size)
		b.Run(sizeName(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			h := NewHasher()
			for i := 0; i < b.N; i++ {
				h.Bytes(buf)
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return itoa(n>>20) + "MiB"
	case n >= 1<<10:
		return itoa(n>>10) + "KiB"
	default:
		return itoa(n) + "B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkConvergedPages compares the rung-crossing DRAM check over a
// 4 MiB image: incremental dirty-page hashing (a handful of touched
// pages) against the exact full-image comparison.
func BenchmarkConvergedPages(b *testing.B) {
	dram := NewDRAM(4 << 20)
	base := make([]byte, dram.Size())
	basePF := HashPages(base, nil)
	dram.Rebase(base)
	line := make([]byte, 32)
	for i := range line {
		line[i] = byte(i)
	}
	// Dirty a workload-sized set: 16 pages.
	for p := uint32(0); p < 16; p++ {
		dram.WriteLine(p*PageBytes+64, line)
	}
	goldenPF := dram.HashPages(nil)
	diffPages := DiffPageBitmap(basePF, goldenPF)
	golden := dram.BuildPageImage(base, goldenPF, diffPages, nil)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !dram.ConvergedPages(diffPages, goldenPF) {
				b.Fatal("must converge to own content")
			}
		}
	})
	b.Run("full-image", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !dram.EqualBasePages(base, golden) {
				b.Fatal("must converge to own content")
			}
		}
	})
}
