package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"testing"
	"time"

	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
)

// syntheticInject builds a structurally valid injection Result without
// simulating anything.
func syntheticInject() *gefin.Result {
	res := &gefin.Result{}
	for i, name := range injectWorkloads {
		w := gefin.WorkloadResult{Workload: name, GoldenCycles: uint64(1000 + i)}
		for _, c := range fault.Components() {
			w.Components = append(w.Components, gefin.ComponentResult{
				Comp:   c,
				N:      FaultsPerComponent,
				Counts: map[fault.Class]int{fault.ClassMasked: FaultsPerComponent},
			})
		}
		res.Workloads = append(res.Workloads, w)
	}
	return res
}

// heldOut is a workload seed without recorded digests.
const heldOut = 7

func syntheticTable(res *gefin.Result, seed int64) campaignDigests {
	d := campaignDigests{Golden: map[string]uint64{}, Campaigns: map[string]string{}, size: FaultsPerComponent}
	for _, w := range res.Workloads {
		d.Golden[w.Workload] = w.GoldenCycles
	}
	d.Campaigns[strconv.FormatInt(seed, 10)] = digestOf(res.Workloads)
	return d
}

func TestDigestCheckFailsOnCorruptedResult(t *testing.T) {
	const seed = 42
	res := syntheticInject()
	table := syntheticTable(res, seed)
	if v := table.check(heldOut, seed, digestOf(res.Workloads), table.checkInject(res)); v.err != nil || !v.recorded {
		t.Fatalf("intact Result: err %v, recorded %v", v.err, v.recorded)
	}

	// A class moved between outcomes keeps the structure valid; only the
	// digest can catch it.
	c := &res.Workloads[1].Components[2]
	c.Counts[fault.ClassMasked]--
	c.Counts[fault.ClassSDC]++
	if err := table.checkInject(res); err != nil {
		t.Fatalf("structure of a reclassified Result should stay valid: %v", err)
	}
	if v := table.check(heldOut, seed, digestOf(res.Workloads), table.checkInject(res)); v.err == nil {
		t.Fatal("digest check passed a corrupted Result")
	}

	// A lost injection breaks the structure even for an unrecorded seed.
	res = syntheticInject()
	res.Workloads[0].Components[0].Counts[fault.ClassMasked]--
	if v := table.check(heldOut, seed+1, digestOf(res.Workloads), table.checkInject(res)); v.err == nil || v.recorded {
		t.Fatalf("unrecorded seed with a lost injection: err %v, recorded %v", v.err, v.recorded)
	}

	// At the default workload seed an intact campaign past the recorded
	// table fails instead of going unchecked.
	res = syntheticInject()
	if v := table.check(DefaultSeed, seed+1, digestOf(res.Workloads), table.checkInject(res)); v.err == nil || v.recorded {
		t.Fatalf("unrecorded campaign at the default seed: err %v, recorded %v", v.err, v.recorded)
	}

	// A golden run that differs from the recorded one fails.
	res = syntheticInject()
	res.Workloads[2].GoldenCycles++
	if err := table.checkInject(res); err == nil {
		t.Fatal("golden-cycle mismatch passed")
	}
}

func TestBeamCheckFailsOnCorruptedResult(t *testing.T) {
	const seed = 7
	res := &beam.Result{}
	for i, name := range beamWorkloads {
		res.Workloads = append(res.Workloads, beam.WorkloadResult{
			Workload:         name,
			GoldenCycles:     uint64(500 + i),
			SimulatedStrikes: fault.NumComponents * StrikesPerComponent,
			Events:           map[fault.Class]float64{fault.ClassSDC: 0.25},
		})
	}
	table := campaignDigests{Golden: map[string]uint64{"crc32": 500, "qsort": 501}, Campaigns: map[string]string{}, size: StrikesPerComponent}
	table.Campaigns[strconv.FormatInt(seed, 10)] = digestOf(res.Workloads)
	if v := table.check(heldOut, seed, digestOf(res.Workloads), table.checkBeam(res)); v.err != nil {
		t.Fatalf("intact Result: %v", v.err)
	}
	res.Workloads[0].Events[fault.ClassSDC] = 0.25000000000000006
	if v := table.check(heldOut, seed, digestOf(res.Workloads), table.checkBeam(res)); v.err == nil {
		t.Fatal("digest check passed a beam Result one ulp off")
	}
}

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
	Workloads []struct {
		Name string
	} `json:"workloads"`
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := make(map[string]bool)
	for _, m := range append(append([]layerMetric(nil), endToEndCatalog...), layerCatalog...) {
		if !valid.MatchString(m.name) || len(m.name) > 64 {
			t.Errorf("metric name %q", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}

	// A traced run reports exactly the catalog, whatever it measured.
	s := &session{}
	l := newLayers()
	l.campaigns = 1
	l.emit(s)
	if len(s.metrics) != len(layerCatalog) {
		t.Errorf("traced run emits %d metrics, catalog lists %d", len(s.metrics), len(layerCatalog))
	}
	for _, m := range layerCatalog {
		if got, ok := s.metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("traced run: metric %s = %+v, want unit %s", m.name, got, m.unit)
		}
	}

	// The catalogs are the lists BENCHMARK.json declares.
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []layerMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEndCatalog)
	same("per_layer", bf.PerLayer, layerCatalog)
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, benchmark implements %d", len(bf.Workloads), len(workloads))
	}
}

func TestReconcile(t *testing.T) {
	if err := reconcile(411, 5, 124, 540); err != nil {
		t.Errorf("exact accounting rejected: %v", err)
	}
	if err := reconcile(411, 5, 129, 540); err == nil {
		t.Error("over-counted accounting accepted")
	}
	if err := reconcile(411, 0, 128, 540); err == nil {
		t.Error("under-counted accounting accepted")
	}
}

func TestUncoveredShare(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	wall := span{at(0), at(10)}
	spans := []span{
		{at(2), at(4)},
		{at(1), at(3)},    // overlaps the first: counted once
		{at(6), at(7)},    // disjoint
		{at(-1), at(0.5)}, // clipped to the wall
		{at(9.5), at(12)}, // clipped to the wall
	}
	// Covered: [0,0.5] + [1,4] + [6,7] + [9.5,10] = 0.5+3+1+0.5 = 5.
	if got := uncoveredShare(wall, spans); got < 0.4999 || got > 0.5001 {
		t.Errorf("uncovered share %v, want 0.5", got)
	}
	if got := uncoveredShare(wall, nil); got != 1 {
		t.Errorf("no spans: uncovered %v, want 1", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median %v", m)
	}
	if q := quantile([]float64{1, 2, 3, 4}, 0.5); q != 2.5 {
		t.Errorf("even median %v", q)
	}
	if _, _, ok := tailPercentile(make([]float64, 19)); ok {
		t.Error("tail percentile reported for 19 samples")
	}
	ys := make([]float64, 40)
	for i := range ys {
		ys[i] = float64(i)
	}
	p, v, ok := tailPercentile(ys)
	if !ok || p != 75 || v != 29 {
		t.Errorf("tail percentile of 0..39: p%d = %v (ok %v), want p75 = 29", p, v, ok)
	}
}

func TestCampaignSeedsDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		s := campaignSeed(DefaultSeed, i)
		if seen[s] {
			t.Fatalf("campaign %d repeats seed %d", i, s)
		}
		seen[s] = true
	}
	for i := 0; i < SetupRepeats; i++ {
		if seen[warmupSeed(i)] {
			t.Errorf("set-up seed %d collides with a timed campaign", i)
		}
	}
}

func TestHostScale(t *testing.T) {
	// A span timed between two reference-speed calibrations is reported
	// as measured; on a host running at half speed, at half its length.
	if s := hostScale(calibRefSeconds, calibRefSeconds); s != 1 {
		t.Errorf("reference host: scale %v, want 1", s)
	}
	if s := hostScale(1.5*calibRefSeconds, 2.5*calibRefSeconds); s != 0.5 {
		t.Errorf("half-speed host: scale %v, want 0.5", s)
	}
	if c := calibrate(2); c <= 0 {
		t.Errorf("calibration took %v s", c)
	}
}
