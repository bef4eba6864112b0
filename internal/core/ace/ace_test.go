// External test package: the prune pre-filter made gefin depend on ace,
// so the injection cross-checks here must live outside the package to
// avoid an import cycle.
package ace_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/ace"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/mem"
)

// liveCache builds a 32-line cache (2 ways x 16 sets x 32 B) with a
// liveness recorder whose stamp clock the test drives.
func liveCache(clock *uint64) (*mem.Cache, *mem.CacheLiveness) {
	dram := mem.NewDRAM(1 << 16)
	c := mem.NewCache(mem.CacheConfig{Name: "c", SizeBytes: 1 << 10, LineBytes: 32, Ways: 2, HitCycles: 1}, mem.NewBus(dram))
	return c, c.AttachLiveness(clock)
}

// TestCacheLifetimeIntegration checks the liveness recorder's ACE
// lifetime summary on a clean line: its value is ACE from the fill to its
// last read, and ACE time starts one cycle after the event's stamp.
func TestCacheLifetimeIntegration(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)
	now = 100
	c.Read(0, 4) // fill at 101, read counts on the fill access
	now = 200
	c.Read(0, 4) // last read at 201
	now = 1000
	c.InvalidateAll() // clean eviction: ACE = 201-101
	l := r.Lifetimes(1100)
	if l.ACECycles != 100 || l.Values != 1 || l.ValuesRead != 1 || l.Entries != 32 {
		t.Fatalf("lifetimes = %+v, want 100 ACE cycles over 1/1 values in 32 lines", l)
	}
	// 100 ACE cycles / (32 lines x 1100 cycles).
	if avf, want := l.AVF(1100), 100.0/(32*1100); avf != want {
		t.Fatalf("AVF = %g, want %g", avf, want)
	}
}

// TestDirtyDataIsACEUntilDeparture checks that a dirty value stays ACE
// until it leaves by writeback — here at the FlushAll, which the
// recorder logs as a dirty eviction — however long after its last read.
func TestDirtyDataIsACEUntilDeparture(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)
	now = 10
	c.Write(0, 4, 42) // fill (the clean value closes unread) + dirty value at 11
	now = 500
	c.FlushAll() // the write-back carries the data: ACE to 501
	l := r.Lifetimes(600)
	if l.ACECycles != 490 || l.Values != 2 || l.ValuesRead != 0 {
		t.Fatalf("lifetimes = %+v, want 490 ACE cycles over 2 unread values", l)
	}
	// The span ended at the flush: a later end of the window adds nothing.
	if later := r.Lifetimes(5000); later.ACECycles != l.ACECycles {
		t.Fatalf("ACE grew past the flush: %d -> %d", l.ACECycles, later.ACECycles)
	}
	if avf, want := l.AVF(600), 490.0/(32*600); avf != want {
		t.Fatalf("AVF = %g, want %g", avf, want)
	}
}

// TestACEMatchesRecordedEstimates pins ace.Run on the detailed model to
// the estimates recorded from the per-access lifetime tracker the
// liveness summary replaced: AVF bits, value counts and golden cycles of
// all thirteen workloads.
func TestACEMatchesRecordedEstimates(t *testing.T) {
	raw, err := os.ReadFile("testdata/detailed_tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []struct {
		Workload     string
		GoldenCycles uint64
		Components   []struct {
			Comp        string
			AVFBits     string
			ValuesTotal uint64
			ValuesRead  uint64
		}
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(bench.All()) {
		t.Fatalf("recorded %d workloads, bench has %d", len(want), len(bench.All()))
	}
	for _, w := range want {
		spec, ok := bench.ByName(w.Workload)
		if !ok {
			t.Fatalf("workload %s missing", w.Workload)
		}
		res, err := ace.Run(ace.Config{}, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.GoldenCycles != w.GoldenCycles || len(res.Components) != len(w.Components) {
			t.Fatalf("%s: %d cycles, %d components; recorded %d, %d",
				w.Workload, res.GoldenCycles, len(res.Components), w.GoldenCycles, len(w.Components))
		}
		for i, wc := range w.Components {
			e := res.Components[i]
			bits := fmt.Sprintf("%016x", math.Float64bits(e.AVF))
			if e.Comp.String() != wc.Comp || bits != wc.AVFBits || e.ValuesTotal != wc.ValuesTotal || e.ValuesRead != wc.ValuesRead {
				t.Errorf("%s/%s: AVF %s values %d/%d; recorded %s AVF %s values %d/%d",
					w.Workload, e.Comp, bits, e.ValuesRead, e.ValuesTotal,
					wc.Comp, wc.AVFBits, wc.ValuesRead, wc.ValuesTotal)
			}
		}
	}
}

func TestACERunProducesEstimates(t *testing.T) {
	spec, _ := bench.ByName("qsort")
	res, err := ace.Run(ace.Config{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Components) != 5 {
		t.Fatalf("components = %d", len(res.Components))
	}
	for _, e := range res.Components {
		if e.AVF < 0 || e.AVF > 1 {
			t.Errorf("%v: AVF %f out of range", e.Comp, e.AVF)
		}
	}
	// The data-carrying structures must show nonzero residency for a
	// sorting workload.
	l1d, _ := res.Component(fault.CompL1D)
	if l1d.AVF == 0 || l1d.ValuesRead == 0 {
		t.Errorf("L1D ACE AVF = %f values=%d", l1d.AVF, l1d.ValuesRead)
	}
	dtlb, _ := res.Component(fault.CompDTLB)
	if dtlb.AVF == 0 {
		t.Error("DTLB ACE AVF = 0")
	}
}

// TestACEOverestimatesInjection reproduces the qualitative finding of [28]:
// per-line ACE analysis yields AVF estimates at or above the statistical
// fault-injection measurement.
func TestACEOverestimatesInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small campaign")
	}
	spec, _ := bench.ByName("qsort")
	aceRes, err := ace.Run(ace.Config{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	injRes, err := gefin.RunWorkload(gefin.Config{
		FaultsPerComponent: 60,
		Seed:               404,
		Components:         []fault.Component{fault.CompDTLB},
	}, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	aceDTLB, _ := aceRes.Component(fault.CompDTLB)
	injDTLB, _ := injRes.Component(fault.CompDTLB)
	margin := injDTLB.ErrorMargin()
	if aceDTLB.AVF < injDTLB.AVF()-2*margin {
		t.Errorf("ACE DTLB AVF %f far below injection %f (margin %f) — over-estimation property violated",
			aceDTLB.AVF, injDTLB.AVF(), margin)
	}
}
