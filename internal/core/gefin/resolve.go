// Plan resolution: the one loop that turns a range of a workload's
// pre-drawn fault plan into per-slot outcomes. The in-process engine
// resolves the whole plan over its primary workbench and the clones the
// pool grants; the campaign-service shard runner resolves one shard's
// range on its single workbench. Both therefore share pre-filter
// resolution, representative election, execution order, materialization
// and verification, and every summary derives from the same per-slot
// record of how each slot was resolved.

package gefin

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"armsefi/internal/bench"
	"armsefi/internal/core/harness"
	"armsefi/internal/mem"
	"armsefi/internal/obs"
)

// slotVia records how one plan slot's verdict was resolved.
type slotVia uint8

const (
	viaSimulated slotVia = iota // its own simulation
	viaPredicted                // the pre-filter's verdict
	viaDeduped                  // its class representative's outcome
)

// prepared is one workload's campaign state: the workbench (with its
// checkpoint ladder and liveness log when configured), the fault plan,
// and the pre-filter verdicts and equivalence classes over it. Every part
// is a pure function of the Config and the workload, so every node of a
// distributed campaign prepares identical state for its shard ranges.
type prepared struct {
	cfg   Config
	name  string
	wb    *harness.Workbench
	plan  []plannedFault
	sizes []uint64
	ep    *exhaustivePlan // exhaustive sweeps only
	pp    *prunePlan      // pruned campaigns only
	dd    *dedupPlan      // deduplicated sampled campaigns only
}

// prepare builds the workload's workbench and derives its plan, its
// pre-filter verdicts and its equivalence-class partition.
func prepare(cfg Config, spec bench.Spec) (*prepared, error) {
	wb, err := prepareWorkbench(cfg, spec)
	if err != nil {
		return nil, err
	}
	w := &prepared{cfg: cfg, name: spec.Name, wb: wb}
	if cfg.Exhaustive {
		if w.ep, w.sizes, err = exhaustivePlanFor(cfg, wb); err != nil {
			return nil, err
		}
		w.plan = w.ep.plan
	} else {
		w.plan, w.sizes = planFor(cfg, wb, spec.Name)
	}
	if cfg.Prune {
		w.pp = predictPlan(wb, w.plan)
	}
	// An exhaustive plan already enumerates one injection per class, so
	// there is nothing left to collapse.
	if cfg.Dedup && !cfg.Exhaustive {
		w.dd = buildDedup(cfg, wb, spec.Name, w.plan, w.pp)
	}
	return w, nil
}

// resolveEnv carries what differs between the two callers of resolve.
type resolveEnv struct {
	// sc streams committed verdicts into sequential stopping and the
	// convergence estimators; em reports progress. Both nil on the shard
	// path.
	sc *stopController
	em *emitter
	// extra, when set, claims up to n more workbenches for the drain;
	// release runs as each of them finishes draining.
	extra   func(n int) ([]*harness.Workbench, error)
	release func()
	// worker tags the trace records of the workload's own workbench; the
	// k-th extra workbench tags worker+k.
	worker int
	tc     obs.TraceContext
}

// resolution is the outcome of resolving plan slots [lo, hi): outcomes
// and via are indexed by slot-lo.
type resolution struct {
	outcomes []outcome
	via      []slotVia
	miss     mismatches
}

// resolve resolves plan slots [lo, hi). Pre-filter verdicts resolve
// first; each equivalence class elects its lowest in-range slot as
// representative; the slots left to simulate run cycle-sorted and
// rung-batched over the workbenches, and a representative materializes
// its outcome onto its class members on its own worker. Under Verify the
// predicted and materialized slots simulate too and are checked against
// their fast-path verdicts afterwards.
//
// The execution order is a pure permutation: every outcome lands in its
// plan slot, so the aggregation over them is identical at any worker
// count and range cut, with or without the fast paths.
func (w *prepared) resolve(lo, hi int, env resolveEnv) (*resolution, error) {
	cfg := w.cfg
	r := &resolution{outcomes: make([]outcome, hi-lo), via: make([]slotVia, hi-lo)}

	// members lists each class's in-range slots, ascending: the first is
	// the representative, the rest materialize its outcome.
	var members [][]int
	if w.dd != nil {
		members = make([][]int, len(w.dd.classes))
	}
	for i := lo; i < hi; i++ {
		switch {
		case w.pp != nil && w.pp.decided[i]:
			r.via[i-lo] = viaPredicted
		case w.dd != nil && w.dd.classOf[i] >= 0:
			ci := w.dd.classOf[i]
			if len(members[ci]) > 0 {
				r.via[i-lo] = viaDeduped
			}
			members[ci] = append(members[ci], i)
		}
	}

	totals := make([]int, len(cfg.Components))
	for ci := range totals {
		totals[ci] = cfg.FaultsPerComponent
		if w.ep != nil {
			totals[ci] = w.ep.perComp[ci]
		}
	}
	tick := func(i int) {
		c := w.plan[i].comp
		env.em.tick(w.name, cfg.Components[c], totals[c])
	}

	// Predicted slots resolve without simulation (under Verify they join
	// the execution order instead).
	if !cfg.Verify {
		for i := lo; i < hi; i++ {
			if r.via[i-lo] != viaPredicted || env.sc.skip(i) {
				continue
			}
			r.outcomes[i-lo] = w.pp.outcome(i)
			env.sc.commit(i, r.outcomes[i-lo].class)
			w.pp.emit(cfg, w.wb, w.name, i, w.plan[i], env.worker, env.tc)
			tick(i)
		}
	}

	// With the ladder on, the order is sorted by injection cycle (ties
	// broken by plan index) and cut into rung-sharing batches, so
	// consecutive runs on a worker restore the same or a neighbouring rung
	// and the short early-injection runs cluster instead of straggling.
	order := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if cfg.Verify || r.via[i-lo] == viaSimulated {
			order = append(order, i)
		}
	}
	if w.wb.Ladder != nil {
		sort.SliceStable(order, func(a, b int) bool {
			return w.plan[order[a]].f.Cycle < w.plan[order[b]].f.Cycle
		})
	}
	batches := batchByRung(w.wb.Ladder, w.plan, order)

	benches := []*harness.Workbench{w.wb}
	if env.extra != nil {
		more, err := env.extra(len(order) - 1)
		if err != nil {
			return nil, err
		}
		benches = append(benches, more...)
	}

	execCfg := cfg
	if cfg.Verify {
		// The probe's mechanism verdict is part of what Verify compares.
		execCfg.Provenance = true
	}
	// Workers race on an atomic cursor over the batches, so load balances
	// regardless of per-injection cost.
	var cursor int64
	drain := func(worker int, wb *harness.Workbench) {
		env.em.workerStarted()
		defer env.em.workerDone()
		// Each worker owns its probe: arrays it taints are its own
		// workbench's, so probes never cross goroutines.
		var probe *mem.Probe
		if execCfg.Provenance {
			probe = new(mem.Probe)
		}
		for {
			n := atomic.AddInt64(&cursor, 1) - 1
			if n >= int64(len(batches)) {
				return
			}
			b := batches[n]
			for _, i := range order[b.lo:b.hi] {
				if env.sc.skip(i) {
					continue
				}
				o := execPlanned(execCfg, wb, w.name, probe, w.plan[i], worker, env.tc)
				r.outcomes[i-lo] = o
				env.sc.commit(i, o.class)
				tick(i)
				if cfg.Verify || w.dd == nil {
					continue
				}
				// Member slots are outside the execution order, so no other
				// goroutine touches them, and the materialized outcome is by
				// construction what simulating the member would produce.
				if ci := w.dd.classOf[i]; ci >= 0 && members[ci][0] == i {
					for _, m := range members[ci][1:] {
						if env.sc.skip(m) {
							continue
						}
						r.outcomes[m-lo] = o
						env.sc.commit(m, o.class)
						w.dd.emit(cfg, w.name, w.plan[m], o, worker, env.tc)
						tick(m)
					}
				}
			}
		}
	}
	var wg sync.WaitGroup
	for k, wb := range benches[1:] {
		wg.Add(1)
		go func(worker int, wb *harness.Workbench) {
			defer wg.Done()
			if env.release != nil {
				defer env.release()
			}
			harness.Phased("shard-execution", func() { drain(worker, wb) })
		}(env.worker+k+1, wb)
	}
	harness.Phased("shard-execution", func() { drain(env.worker, w.wb) })
	wg.Wait()

	if cfg.Verify {
		r.miss = w.verify(lo, r, members)
	}
	return r, nil
}

// mismatches tallies a Verify run's disagreements per fast path and
// describes the first one.
type mismatches struct {
	prune, dedup, ladder int
	first                string
}

func (m *mismatches) note(count *int, msg string) {
	*count++
	if m.first == "" {
		m.first = msg
	}
}

// err fails the campaign on any disagreement.
func (m mismatches) err(workload string) error {
	if n := m.prune + m.dedup + m.ladder; n > 0 {
		return fmt.Errorf("gefin: verify: %d fast-path verdicts disagree with the reference on %s (%d predicted, %d deduplicated, %d ladder; first: %s)",
			n, workload, m.prune, m.dedup, m.ladder, m.first)
	}
	return nil
}

// verify checks every fast path a Verify run shadowed: each predicted
// slot's simulation against its prediction, each class member's against
// its representative's, and each ladder run's incremental convergence
// checks against the exact full-image compare and its hang proof's
// computed Result against the one simulated to the watchdog.
func (w *prepared) verify(lo int, r *resolution, members [][]int) mismatches {
	var m mismatches
	for k, o := range r.outcomes {
		p := w.plan[lo+k]
		if o.ladderMismatches > 0 {
			m.note(&m.ladder, fmt.Sprintf("%v bit=%d cycle=%d: %d ladder verdicts (incremental DRAM convergence, hang-proof Result) disagreed with the reference",
				p.f.Comp, p.f.Bit, p.f.Cycle, o.ladderMismatches))
		}
		if r.via[k] == viaPredicted {
			if msg := mismatch(p, "predicted", w.pp.outcome(lo+k), o); msg != "" {
				m.note(&m.prune, msg)
			}
		}
	}
	for _, ms := range members {
		if len(ms) < 2 {
			continue
		}
		rep := ms[0]
		what := fmt.Sprintf("representative (cycle=%d)", w.plan[rep].f.Cycle)
		for _, s := range ms[1:] {
			if msg := mismatch(w.plan[s], what, r.outcomes[rep-lo], r.outcomes[s-lo]); msg != "" {
				m.note(&m.dedup, msg)
			}
		}
	}
	return m
}

// mismatch compares a slot's simulated outcome against the verdict a
// fast path would have given it and describes the disagreement ("" on
// match). Verify runs simulate with a provenance probe, so the mechanism
// verdicts compare too.
func mismatch(p plannedFault, what string, want, got outcome) string {
	if got.class == want.class && got.mech == want.mech && got.valid == want.valid && got.kernel == want.kernel {
		return ""
	}
	return fmt.Sprintf("%v bit=%d cycle=%d: %s %v/%v valid=%v kernel=%v, simulated %v/%v valid=%v kernel=%v",
		p.f.Comp, p.f.Bit, p.f.Cycle, what,
		want.class, want.mech, want.valid, want.kernel,
		got.class, got.mech, got.valid, got.kernel)
}

// splits derives the prune and dedup splits from a per-slot resolution
// record — the one derivation behind the in-process summaries and the
// coordinator's assembled ones. mech names slot k's predicted masking
// mechanism; counted (nil for every slot) limits the split to the slots
// inside the sequential-stopping cuts, so the three counts always sum to
// the slots the Result aggregates.
func splits(via []slotVia, mech func(k int) string, counted func(k int) bool) (PruneSummary, DedupSummary) {
	ps := PruneSummary{ByMechanism: make(map[string]int)}
	var ds DedupSummary
	for k, v := range via {
		if counted != nil && !counted(k) {
			continue
		}
		switch v {
		case viaPredicted:
			ps.Predicted++
			ps.ByMechanism[mech(k)]++
		case viaDeduped:
			ds.Deduped++
		default:
			ps.Simulated++
			ds.Simulated++
		}
	}
	return ps, ds
}
