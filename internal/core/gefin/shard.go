// Shard execution API of the campaign service: a campaign's pre-drawn
// fault plan is cut into contiguous index ranges ("shards"), each shard
// is executed independently — possibly on another machine — and the
// per-slot outcomes are reassembled in plan order. Because the plan is a
// pure function of the seeded Config and the workload, and every
// injection run is deterministic, the assembled WorkloadResult is
// bit-identical to an uninterrupted in-process run at any shard size,
// shard order, node count, or interruption pattern.

package gefin

import (
	"fmt"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
)

// ShardOutcome is the wire record of one executed injection: everything
// aggregation needs, nothing machine-local. It round-trips through JSON
// losslessly, so shard results can cross process and node boundaries.
type ShardOutcome struct {
	Class  fault.Class `json:"class"`
	Valid  bool        `json:"valid,omitempty"`
	Kernel bool        `json:"kernel,omitempty"`
	// Predicted marks a slot the pre-filter proved masked from the liveness
	// log without simulating it (pruned campaigns only); Mechanism is the
	// predicted masking mechanism (under Verify the slot also simulated and
	// matched the prediction). Both fields are bookkeeping for the
	// coordinator's prune split — Class/Valid/Kernel already carry exactly
	// what simulation would have concluded, so assembly ignores them.
	Predicted bool   `json:"predicted,omitempty"`
	Mechanism string `json:"mechanism,omitempty"`
	// Dedup marks a slot materialized from a shard-local equivalence-class
	// representative without its own simulation (deduplicated campaigns
	// only; under Verify it also simulated and matched). Bookkeeping for
	// the coordinator's dedup split — the materialized Class/Valid/Kernel
	// are by construction exactly what simulating the slot would have
	// produced, so assembly ignores it.
	Dedup bool `json:"dedup,omitempty"`
}

// ShardMeta carries the per-workload constants aggregation needs. Every
// shard of a workload reports the same meta (the values derive from the
// deterministic golden run), which the assembler cross-checks.
type ShardMeta struct {
	GoldenCycles uint64   `json:"golden_cycles"`
	GoldenInstrs uint64   `json:"golden_instrs"`
	SizeBits     []uint64 `json:"size_bits"`
}

// PlanLen returns the length of the pre-drawn fault plan the Config
// implies for any one workload — components outer, injections inner. It
// needs no machine, so a coordinator can cut shard ranges at submission
// time, before any node has booted a workbench.
func PlanLen(cfg Config) int {
	cfg = cfg.withDefaults()
	return len(cfg.Components) * cfg.FaultsPerComponent
}

// PlanComponents returns the normalised component list and per-component
// sample size of the Config's plan: slot i targets component
// i/perComp in this order. Convergence tallies outside the engine (the
// campaign-service worker) use it to map plan slots back to estimators.
func PlanComponents(cfg Config) (comps []fault.Component, perComp int) {
	cfg = cfg.withDefaults()
	return cfg.Components, cfg.FaultsPerComponent
}

// ShardRunner executes plan shards for one campaign Config, caching one
// prepared workload (boot + golden run + optional checkpoint ladder,
// liveness log, pre-filter verdicts and partition) per workload so
// consecutive shards of the same workload pay no setup. A runner is
// single-goroutine (one simulated machine per workload); run several
// runners for parallelism.
type ShardRunner struct {
	cfg Config
	// Worker tags trace records emitted during shard runs, so a node's
	// runners are distinguishable in the campaign trace.
	Worker int
	// Ctx is stamped onto every trace record the shard's injections emit
	// (campaign/shard/node/span); the campaign-service worker sets it per
	// assignment. The zero context stamps nothing.
	Ctx     obs.TraceContext
	benches map[string]*prepared
}

// NewShardRunner builds a runner for the campaign Config. The Config is
// normalised exactly like Run normalises it, so shard execution sees the
// same effective knobs as an in-process campaign.
func NewShardRunner(cfg Config) *ShardRunner {
	return &ShardRunner{cfg: cfg.withDefaults(), benches: make(map[string]*prepared)}
}

// RunShard executes plan slots [lo, hi) of the workload and returns their
// outcomes in slot order plus the workload's meta. The first shard of a
// workload pays the setup (kernel boot, golden run, ladder capture,
// liveness replay); later shards reuse it. Equivalence classes elect
// shard-local representatives: different shards of one class each
// simulate their own — redundant across shards but provably
// outcome-identical, so assembly stays bit-exact.
func (r *ShardRunner) RunShard(spec bench.Spec, lo, hi int) ([]ShardOutcome, ShardMeta, error) {
	w, ok := r.benches[spec.Name]
	if !ok {
		var err error
		if w, err = prepare(r.cfg, spec); err != nil {
			return nil, ShardMeta{}, err
		}
		r.benches[spec.Name] = w
	}
	if lo < 0 || hi > len(w.plan) || lo >= hi {
		return nil, ShardMeta{}, fmt.Errorf("gefin: shard [%d,%d) out of plan range [0,%d)", lo, hi, len(w.plan))
	}
	res, err := w.resolve(lo, hi, resolveEnv{worker: r.Worker, tc: r.Ctx})
	if err != nil {
		return nil, ShardMeta{}, err
	}
	if err := res.miss.err(spec.Name); err != nil {
		return nil, ShardMeta{}, err
	}
	outs := make([]ShardOutcome, len(res.outcomes))
	for k, o := range res.outcomes {
		outs[k] = ShardOutcome{Class: o.class, Valid: o.valid, Kernel: o.kernel}
		switch res.via[k] {
		case viaPredicted:
			outs[k].Predicted, outs[k].Mechanism = true, w.pp.preds[lo+k].Mech.String()
		case viaDeduped:
			outs[k].Dedup = true
		}
	}
	meta := ShardMeta{
		GoldenCycles: w.wb.Golden.Cycles,
		GoldenInstrs: w.wb.Golden.Instructions,
		SizeBits:     append([]uint64(nil), w.sizes...),
	}
	return outs, meta, nil
}

// Release drops the cached workbench of a finished workload (or all of
// them for the empty string), freeing its simulated DRAM and ladder.
func (r *ShardRunner) Release(workload string) {
	if workload == "" {
		r.benches = make(map[string]*prepared)
		return
	}
	delete(r.benches, workload)
}

// shardSplits derives a workload's prune and dedup splits from its
// assembled shard outcomes, through the same per-slot derivation as the
// in-process summaries. Verified stays zero: a shard that returned at
// all passed its verification.
func shardSplits(outs []ShardOutcome) (PruneSummary, DedupSummary) {
	via := make([]slotVia, len(outs))
	for k, o := range outs {
		switch {
		case o.Predicted:
			via[k] = viaPredicted
		case o.Dedup:
			via[k] = viaDeduped
		}
	}
	return splits(via, func(k int) string { return outs[k].Mechanism }, nil)
}

// ShardPruneSummary derives a workload's predicted/simulated split from
// its assembled shard outcomes. The coordinator calls it per workload and
// merges the results into the campaign's PruneSummary — the split never
// rides inside WorkloadResult, which stays byte-identical with pruning on
// or off.
func ShardPruneSummary(outs []ShardOutcome) *PruneSummary {
	ps, _ := shardSplits(outs)
	return &ps
}

// MergePruneSummaries folds per-workload splits into one campaign-level
// summary (nil when the slice is empty or all nil).
func MergePruneSummaries(parts []*PruneSummary) *PruneSummary {
	var total *PruneSummary
	for _, p := range parts {
		if p == nil {
			continue
		}
		if total == nil {
			total = &PruneSummary{ByMechanism: make(map[string]int)}
		}
		total.merge(p)
	}
	return total
}

// ShardDedupSummary derives a workload's deduplicated/simulated split
// from its assembled shard outcomes, like ShardPruneSummary. Class-count
// statistics stay zero: shards elect local representatives, so per-shard
// class tables do not reassemble into one global partition.
func ShardDedupSummary(outs []ShardOutcome) *DedupSummary {
	_, ds := shardSplits(outs)
	return &ds
}

// MergeDedupSummaries folds per-workload splits into one campaign-level
// summary (nil when the slice is empty or all nil).
func MergeDedupSummaries(parts []*DedupSummary) *DedupSummary {
	var total *DedupSummary
	for _, p := range parts {
		if p == nil {
			continue
		}
		if total == nil {
			total = &DedupSummary{}
		}
		total.merge(p)
	}
	return total
}

// AssembleWorkload reassembles a workload result from per-slot shard
// outcomes covering the full plan, in plan order. It runs the exact
// aggregation of the in-process engine, so the result is bit-identical
// to an uninterrupted run of the same Config and seed.
func AssembleWorkload(cfg Config, workload string, meta ShardMeta, outs []ShardOutcome) (*WorkloadResult, error) {
	cfg = cfg.withDefaults()
	if want := len(cfg.Components) * cfg.FaultsPerComponent; len(outs) != want {
		return nil, fmt.Errorf("gefin: assemble %s: %d outcomes, want %d", workload, len(outs), want)
	}
	if len(meta.SizeBits) != len(cfg.Components) {
		return nil, fmt.Errorf("gefin: assemble %s: %d component sizes, want %d", workload, len(meta.SizeBits), len(cfg.Components))
	}
	outcomes := make([]outcome, len(outs))
	for i, o := range outs {
		outcomes[i] = outcome{class: o.Class, valid: o.Valid, kernel: o.Kernel}
	}
	return aggregate(cfg, workload, meta.GoldenCycles, meta.GoldenInstrs, meta.SizeBits, outcomes, nil), nil
}
