// Equivalence-class deduplication glue: partition the pre-drawn plan's
// dedupable injections into outcome-equivalence classes (same fault
// site, same inter-event quiescent window — see internal/core/equiv),
// simulate the canonical representative of each class, and materialize
// its outcome onto every member. Materialized outcomes are by
// construction exactly what simulating the member would have produced,
// so the aggregated Workloads stay byte-identical with deduplication on
// or off — the class bookkeeping surfaces only in DedupSummary and in
// trace records tagged dedup=true.

package gefin

import (
	"time"

	"armsefi/internal/core/equiv"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/harness"
	"armsefi/internal/obs"
)

// dedupPlan holds one workload's equivalence-class partition. The plan
// resolver elects each class's lowest slot inside the range it resolves
// as representative, so a shard elects a shard-local one.
type dedupPlan struct {
	classes []equiv.Class
	// classOf maps each plan slot to its class index (-1 for slots
	// outside any multi-member class).
	classOf []int
	stats   equiv.Stats
}

// buildDedup partitions the plan against the workbench's liveness log,
// excluding slots the pre-filter already decided (pp non-nil): a decided
// slot resolves to its predicted verdict without simulation, so classing
// it could only shadow a representative that must still run. Both the
// partition and the decided set are pure functions of the deterministic
// liveness replay and the pre-drawn plan, so every node of a distributed
// campaign derives identical classes for its shard ranges.
func buildDedup(cfg Config, wb *harness.Workbench, workload string, plan []plannedFault, pp *prunePlan) *dedupPlan {
	faults := make([]fault.Fault, len(plan))
	for i, p := range plan {
		faults[i] = p.f
	}
	var eligible func(int) bool
	if pp != nil {
		eligible = func(i int) bool { return !pp.decided[i] }
	}
	dd := &dedupPlan{classOf: make([]int, len(plan))}
	dd.classes = equiv.Partition(wb.Liveness, faults, eligible)
	for i := range dd.classOf {
		dd.classOf[i] = -1
	}
	for ci, cl := range dd.classes {
		for _, m := range cl.Members {
			dd.classOf[m] = ci
		}
	}
	dd.stats = equiv.StatsOf(dd.classes)
	if cfg.Obs.On() {
		sizes := make([]int, len(dd.classes))
		for ci, cl := range dd.classes {
			sizes[ci] = len(cl.Members)
		}
		cfg.Obs.DedupClasses(workload, sizes)
	}
	return dd
}

// emit traces one materialized member injection: the member's own fault
// coordinates carrying the representative's outcome skeleton, tagged
// dedup=true, and feeds the dedup counter grid.
func (dd *dedupPlan) emit(cfg Config, workload string, p plannedFault, rep outcome, worker int, tc obs.TraceContext) {
	cfg.Obs.Deduped(workload, p.f.Comp)
	if !cfg.Obs.On() {
		return
	}
	now := time.Now()
	rec := obs.Record{
		Kind:       obs.KindInjection,
		Workload:   workload,
		Comp:       p.f.Comp,
		Bit:        p.f.Bit,
		Cycle:      p.f.Cycle,
		Worker:     worker,
		ExecCycles: rep.cycles,
		Outcome:    rep.outstr,
		Class:      rep.class,
		Valid:      rep.valid,
		Kernel:     rep.kernel,
		Dedup:      true,
	}
	if rep.mech != 0 {
		rec.Mechanism = rep.mech.String()
	}
	tc.Stamp(&rec)
	cfg.Obs.Record(rec, now, now)
}
