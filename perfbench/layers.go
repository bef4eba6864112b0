package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
)

// span is one timed call into a layer, on the benchmark's clock.
type span struct {
	start, end time.Time
}

func (s span) seconds() float64 { return s.end.Sub(s.start).Seconds() }

// timed runs fn and returns its span.
func timed(fn func()) span {
	s := span{start: time.Now()}
	fn()
	s.end = time.Now()
	return s
}

// uncoveredShare returns the share of wall not covered by any of the
// spans (clipped to wall): the traced time no layer span accounts for.
func uncoveredShare(wall span, spans []span) float64 {
	total := wall.end.Sub(wall.start)
	if total <= 0 {
		return 0
	}
	clipped := make([]span, 0, len(spans))
	for _, s := range spans {
		if s.start.Before(wall.start) {
			s.start = wall.start
		}
		if s.end.After(wall.end) {
			s.end = wall.end
		}
		if s.end.After(s.start) {
			clipped = append(clipped, s)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur span
	for i, s := range clipped {
		switch {
		case i == 0:
			cur = s
		case !s.start.After(cur.end):
			if s.end.After(cur.end) {
				cur.end = s.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = s
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return 1 - float64(covered)/float64(total)
}

// Resolution paths of one planned injection or strike.
const (
	pathPredicted = "predicted"  // decided by the ace pre-filter
	pathDeduped   = "deduped"    // materialized from an equiv representative
	pathEarlyExit = "early_exit" // simulated, cut short by golden convergence
	pathCompleted = "completed"  // simulated to power-off or a fatal trap
	pathTimeout   = "timeout"    // simulated to the watchdog budget
	pathFollowup  = "followup"   // beam strike whose masked run was followed by a second execution
)

var paths = []string{pathPredicted, pathDeduped, pathEarlyExit, pathCompleted, pathTimeout, pathFollowup}

// simulatedPath reports whether a path ran the simulator.
func simulatedPath(p string) bool {
	return p != pathPredicted && p != pathDeduped
}

type costKey struct {
	comp fault.Component
	path string
}

// costRow sums one cost-table cell. cycles and cycNs cover only the
// runs whose executed cycle count is known, so ns/cycle is cycNs/cycles.
type costRow struct {
	count  int
	ns     int64
	cycles uint64
	cycNs  int64
}

// costTable accumulates host time and simulated cycles by component x
// resolution path over a traced run.
type costTable map[costKey]*costRow

// add records one resolved slot; known reports whether cycles is the
// run's executed cycle count.
func (t costTable) add(comp fault.Component, path string, ns int64, cycles uint64, known bool) {
	r := t[costKey{comp, path}]
	if r == nil {
		r = &costRow{}
		t[costKey{comp, path}] = r
	}
	r.count++
	r.ns += ns
	if known {
		r.cycles += cycles
		r.cycNs += ns
	}
}

// sum totals the rows matching keep.
func (t costTable) sum(keep func(costKey) bool) costRow {
	var s costRow
	for k, r := range t {
		if keep(k) {
			s.count += r.count
			s.ns += r.ns
			s.cycles += r.cycles
			s.cycNs += r.cycNs
		}
	}
	return s
}

func nsPerCycle(r costRow) float64 {
	if r.cycles == 0 {
		return 0
	}
	return float64(r.cycNs) / float64(r.cycles)
}

// print writes the cost table: per component x path, count, host
// seconds, simulated Mcycles and ns per simulated cycle, all totals over
// the traced run.
func (t costTable) print() {
	fmt.Printf("cost table (traced run totals)\n%-8s %-10s %8s %10s %10s %10s\n", "comp", "path", "count", "host_s", "Mcycles", "ns/cycle")
	for _, c := range fault.Components() {
		for _, p := range paths {
			r := t[costKey{c, p}]
			if r == nil {
				continue
			}
			fmt.Printf("%-8s %-10s %8d %10.4f %10.3f %10.2f\n", c, p, r.count, float64(r.ns)/1e9, float64(r.cycles)/1e6, nsPerCycle(*r))
		}
	}
	all := t.sum(func(k costKey) bool { return simulatedPath(k.path) })
	fmt.Printf("%-8s %-10s %8d %10.4f %10.3f %10.2f\n", "all", "simulated", all.count, float64(all.ns)/1e9, float64(all.cycles)/1e6, nsPerCycle(all))
}

// layerMetric is one per-layer metric the traced run reports.
type layerMetric struct {
	name, unit string
}

// layerCatalog lists every per-layer metric, in BENCHMARK.json order.
// Every traced run reports all of them; a layer a workload does not
// exercise reads 0.
var layerCatalog = func() []layerMetric {
	var m []layerMetric
	for _, p := range []string{pathEarlyExit, pathCompleted, pathTimeout} {
		m = append(m,
			layerMetric{"simulate." + p + ".count", "count"},
			layerMetric{"simulate." + p + ".s", "s"},
			layerMetric{"simulate." + p + ".mcycles", "Mcycles"},
			layerMetric{"simulate." + p + ".ns_per_cycle", "ns/cycle"})
	}
	for _, c := range fault.Components() {
		m = append(m,
			layerMetric{"simulate." + c.String() + ".count", "count"},
			layerMetric{"simulate." + c.String() + ".s", "s"})
	}
	m = append(m,
		layerMetric{"simulate.ff_mcycles", "Mcycles"},
		layerMetric{"simulate.run_ms.p50", "ms"},
		layerMetric{"simulate.run_ms.p99", "ms"},
		layerMetric{"simulate.ns_per_cycle", "ns/cycle"},
		layerMetric{"slots.plan", "count"},
		layerMetric{"slots.predicted", "count"},
		layerMetric{"slots.deduped", "count"},
		layerMetric{"slots.simulated", "count"},
		layerMetric{"ace.predict_s", "s"},
		layerMetric{"ace.decided_frac", "ratio"},
		layerMetric{"equiv.partition_s", "s"},
		layerMetric{"equiv.deduped_frac", "ratio"},
		layerMetric{"equiv.classes", "count"},
		layerMetric{"bench.build_s", "s"},
		layerMetric{"harness.new_s", "s"},
		layerMetric{"harness.ladder_s", "s"},
		layerMetric{"harness.liveness_s", "s"},
		layerMetric{"harness.clone_s", "s"},
		layerMetric{"harness.golden_mcycles", "Mcycles"},
		layerMetric{"soc.ladder_mb", "MB"},
		layerMetric{"soc.ladder_shared_mb", "MB"},
		layerMetric{"gefin.assemble_s", "s"},
		layerMetric{"serve.submit_ms", "ms"},
		layerMetric{"serve.claim_ms.p50", "ms"},
		layerMetric{"serve.claim_ms.p99", "ms"},
		layerMetric{"serve.complete_ms.p50", "ms"},
		layerMetric{"serve.complete_ms.p99", "ms"},
		layerMetric{"serve.shard_s.p50", "s"},
		layerMetric{"serve.shard_s.p99", "s"},
		layerMetric{"serve.first_shard_s", "s"},
		layerMetric{"serve.claims_empty_frac", "ratio"},
		layerMetric{"serve.result_lag_s", "s"},
		layerMetric{"serve.fetch_ms", "ms"})
	for _, c := range fault.Components() {
		m = append(m, layerMetric{"beam.chain_s." + c.String(), "s"})
	}
	m = append(m,
		layerMetric{"beam.chain_s.max", "s"},
		layerMetric{"beam.prepare_s", "s"},
		layerMetric{"beam.strikes", "count"},
		layerMetric{"beam.strike_ms", "ms"},
		layerMetric{"beam.assemble_ms", "ms"},
		layerMetric{"trace_overhead_frac", "ratio"},
		layerMetric{"trace.uncovered_frac", "ratio"})
	return m
}()

// endToEndCatalog lists the untraced run's metrics, in BENCHMARK.json
// order.
var endToEndCatalog = []layerMetric{
	{"campaign_s", "s"},
	{"campaign_cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"simulated_runs", "count"},
}

// layers accumulates one traced run's per-layer measurements. Sums are
// over the traced campaigns; emit reports per-campaign means unless a
// metric says otherwise.
type layers struct {
	campaigns int
	cost      costTable
	runMs     []float64 // host ms of every simulated run
	ffCycles  uint64

	// slot accounting
	plan, predicted, deduped, simulated, undecided, classes int

	// layer host seconds
	predictS, partitionS, buildS, newS, ladderS, livenessS, cloneS, assembleS float64

	goldenCycles            uint64 // per campaign (identical across campaigns)
	ladderBytes, ladderShrd int64  // per campaign

	untracedWall, tracedWall []float64
	uncovered                []float64

	// service path
	submitMs, fetchMs, resultLagS      []float64
	claimMs, completeMs, shardS, first []float64
	claims, emptyClaims                int

	// beam path
	chainS     map[fault.Component][]float64
	chainMax   []float64
	prepareS   []float64
	strikes    int
	strikeMs   []float64
	assembleMs []float64
}

func newLayers() *layers {
	return &layers{cost: make(costTable), chainS: make(map[fault.Component][]float64)}
}

// addSimulated records one simulated run; known reports whether cycles
// is its executed cycle count.
func (l *layers) addSimulated(comp fault.Component, path string, ns int64, cycles, ff uint64, known bool) {
	l.cost.add(comp, path, ns, cycles, known)
	l.runMs = append(l.runMs, float64(ns)/1e6)
	l.ffCycles += ff
}

// addInjectionRecord accounts one engine trace record of an injection
// campaign. An early-exit record carries the golden total as its cycle
// count and no converged-at cycle, so its executed cycles are unknown.
func (l *layers) addInjectionRecord(r obs.Record) {
	switch {
	case r.Predicted:
		l.cost.add(r.Comp, pathPredicted, r.WallNS, 0, false)
		l.predicted++
	case r.Dedup:
		l.cost.add(r.Comp, pathDeduped, 0, 0, false)
		l.deduped++
		l.undecided++
	default:
		l.undecided++
		path := pathCompleted
		if r.EarlyExit {
			path = pathEarlyExit
		} else if r.Outcome == "timeout" {
			path = pathTimeout
		}
		l.addSimulated(r.Comp, path, r.WallNS, r.ExecCycles-r.FFCycles, r.FFCycles, !r.EarlyExit)
		l.simulated++
	}
	l.plan++
}

// reconcile checks predicted + deduped + simulated = plan exactly and
// prints the line.
func reconcile(predicted, deduped, simulated, plan int) error {
	sum := predicted + deduped + simulated
	fmt.Printf("reconcile: predicted %d + deduped %d + simulated %d = %d, plan %d", predicted, deduped, simulated, sum, plan)
	if sum != plan {
		fmt.Println(" MISMATCH")
		return fmt.Errorf("slot accounting does not reconcile: %d + %d + %d = %d, plan %d", predicted, deduped, simulated, sum, plan)
	}
	fmt.Println(" exact")
	return nil
}

// emit reports every per-layer metric and prints the cost table and the
// reconciliation lines.
func (l *layers) emit(b *session) {
	for _, m := range layerCatalog {
		b.set(m.name, 0, m.unit)
	}
	n := float64(l.campaigns)
	if n == 0 {
		return
	}
	per := func(x float64) float64 { return x / n }
	for _, p := range []string{pathEarlyExit, pathCompleted, pathTimeout} {
		r := l.cost.sum(func(k costKey) bool { return k.path == p })
		b.set("simulate."+p+".count", per(float64(r.count)), "count")
		b.set("simulate."+p+".s", per(float64(r.ns)/1e9), "s")
		b.set("simulate."+p+".mcycles", per(float64(r.cycles)/1e6), "Mcycles")
		b.set("simulate."+p+".ns_per_cycle", nsPerCycle(r), "ns/cycle")
	}
	for _, c := range fault.Components() {
		r := l.cost.sum(func(k costKey) bool { return k.comp == c && simulatedPath(k.path) })
		b.set("simulate."+c.String()+".count", per(float64(r.count)), "count")
		b.set("simulate."+c.String()+".s", per(float64(r.ns)/1e9), "s")
	}
	b.set("simulate.ff_mcycles", per(float64(l.ffCycles)/1e6), "Mcycles")
	b.set("simulate.run_ms.p50", quantile(l.runMs, 0.5), "ms")
	b.set("simulate.run_ms.p99", quantile(l.runMs, 0.99), "ms")
	b.set("simulate.ns_per_cycle", nsPerCycle(l.cost.sum(func(k costKey) bool { return simulatedPath(k.path) })), "ns/cycle")
	b.set("slots.plan", per(float64(l.plan)), "count")
	b.set("slots.predicted", per(float64(l.predicted)), "count")
	b.set("slots.deduped", per(float64(l.deduped)), "count")
	b.set("slots.simulated", per(float64(l.simulated)), "count")
	b.set("ace.predict_s", per(l.predictS), "s")
	b.set("ace.decided_frac", ratio(l.predicted, l.plan), "ratio")
	b.set("equiv.partition_s", per(l.partitionS), "s")
	b.set("equiv.deduped_frac", ratio(l.deduped, l.undecided), "ratio")
	b.set("equiv.classes", per(float64(l.classes)), "count")
	b.set("bench.build_s", per(l.buildS), "s")
	b.set("harness.new_s", per(l.newS), "s")
	b.set("harness.ladder_s", per(l.ladderS), "s")
	b.set("harness.liveness_s", per(l.livenessS), "s")
	b.set("harness.clone_s", per(l.cloneS), "s")
	b.set("harness.golden_mcycles", float64(l.goldenCycles)/1e6, "Mcycles")
	b.set("soc.ladder_mb", float64(l.ladderBytes)/(1<<20), "MB")
	b.set("soc.ladder_shared_mb", float64(l.ladderShrd)/(1<<20), "MB")
	b.set("gefin.assemble_s", per(l.assembleS), "s")
	b.set("serve.submit_ms", median(l.submitMs), "ms")
	b.set("serve.claim_ms.p50", quantile(l.claimMs, 0.5), "ms")
	b.set("serve.claim_ms.p99", quantile(l.claimMs, 0.99), "ms")
	b.set("serve.complete_ms.p50", quantile(l.completeMs, 0.5), "ms")
	b.set("serve.complete_ms.p99", quantile(l.completeMs, 0.99), "ms")
	b.set("serve.shard_s.p50", quantile(l.shardS, 0.5), "s")
	b.set("serve.shard_s.p99", quantile(l.shardS, 0.99), "s")
	b.set("serve.first_shard_s", median(l.first), "s")
	b.set("serve.claims_empty_frac", ratio(l.emptyClaims, l.claims), "ratio")
	b.set("serve.result_lag_s", median(l.resultLagS), "s")
	b.set("serve.fetch_ms", median(l.fetchMs), "ms")
	for _, c := range fault.Components() {
		b.set("beam.chain_s."+c.String(), median(l.chainS[c]), "s")
	}
	b.set("beam.chain_s.max", median(l.chainMax), "s")
	b.set("beam.prepare_s", median(l.prepareS), "s")
	b.set("beam.strikes", per(float64(l.strikes)), "count")
	b.set("beam.strike_ms", median(l.strikeMs), "ms")
	b.set("beam.assemble_ms", median(l.assembleMs), "ms")
	overhead := 0.0
	if u := median(l.untracedWall); u > 0 {
		overhead = median(l.tracedWall)/u - 1
	}
	b.set("trace_overhead_frac", overhead, "ratio")
	b.set("trace.uncovered_frac", median(l.uncovered), "ratio")

	l.cost.print()
	fmt.Printf("traced campaigns %d: untraced wall median %.4f s, traced wall median %.4f s, overhead %+.3f\n",
		l.campaigns, median(l.untracedWall), median(l.tracedWall), overhead)
	fmt.Printf("uncovered: median share of traced wall outside every layer span %.4f\n", median(l.uncovered))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// recordSink collects the engine's trace records in memory.
type recordSink struct {
	mu   sync.Mutex
	recs []obs.Record
}

// EmitRecord implements obs.RecordSink.
func (s *recordSink) EmitRecord(r obs.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
}

// take returns and clears the collected records.
func (s *recordSink) take() []obs.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recs
	s.recs = nil
	return r
}
