// Campaign execution engine: fault sampling is split from fault execution
// so that the sample depends only on the seeded RNG while execution can be
// sharded across a pool of workbenches. The determinism contract — the
// same Seed yields the same Result at any Workers value — follows from
// pre-drawing the whole per-component fault list in the sequential
// engine's exact RNG order, recording every outcome into its plan slot,
// and aggregating the slots in plan order.

package gefin

import (
	"fmt"
	"math/rand"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/harness"
	"armsefi/internal/core/sched"
	"armsefi/internal/mem"
	"armsefi/internal/obs"
	"armsefi/internal/soc"
)

// plannedFault is one pre-drawn injection of the campaign plan.
type plannedFault struct {
	comp int // index into cfg.Components
	f    fault.Fault
}

// outcome is the record of one executed injection. mech is the
// provenance mechanism verdict when one was computed (provenance or
// Verify runs with an armed probe); aggregation ignores it. cycles and
// outstr carry the raw run observables so a deduplicated member's trace
// record can reproduce its representative's skeleton. convMismatches
// counts the run's ladder convergence-check disagreements (Verify only).
type outcome struct {
	class          fault.Class
	valid          bool
	kernel         bool
	mech           fault.Mechanism
	cycles         uint64
	outstr         string
	convMismatches int
}

// sideSummaries carries one workload's optional side reports — the parts
// of a Result that live beside Workloads rather than inside them.
type sideSummaries struct {
	prune *PruneSummary
	dedup *DedupSummary
	sweep *SweepSummary
	stop  *StopSummary
}

// sampleFaults pre-draws the full campaign plan for one workload,
// consuming the RNG in exactly the order the sequential engine did:
// components outer, injections inner, with the TLB region re-draw nested
// between the bit and cycle draws.
func sampleFaults(cfg Config, sizes []uint64, goldenCycles uint64, rng *rand.Rand) []plannedFault {
	plan := make([]plannedFault, 0, len(cfg.Components)*cfg.FaultsPerComponent)
	for ci, comp := range cfg.Components {
		size := sizes[ci]
		for i := 0; i < cfg.FaultsPerComponent; i++ {
			bit := uint64(rng.Int63n(int64(size)))
			if !cfg.TLBFullEntry && (comp == fault.CompITLB || comp == fault.CompDTLB) {
				// GeFIN targets the physical page and permission bits of
				// the TLB entries (Section V-B).
				entry := bit / mem.TLBEntryBits
				bit = entry*mem.TLBEntryBits +
					mem.TLBPhysRegionStart + uint64(rng.Intn(mem.TLBPhysRegionBits))
			}
			plan = append(plan, plannedFault{comp: ci, f: fault.Fault{
				Comp:  comp,
				Bit:   bit,
				Cycle: uint64(rng.Int63n(int64(goldenCycles))),
			}})
		}
	}
	return plan
}

// prepareWorkbench builds the workload's workbench (and its checkpoint
// ladder and pre-filter liveness log when configured) — the setup step of
// prepare, shared by the in-process engine and the shard runner.
func prepareWorkbench(cfg Config, spec bench.Spec) (*harness.Workbench, error) {
	wb, err := harness.Build(cfg.Preset, cfg.Model, spec, cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("gefin: %w", err)
	}
	// Verify cross-checks every ladder convergence verdict; clones inherit
	// the setting.
	wb.Machine.VerifyConvergence = cfg.Verify
	if cfg.CheckpointEvery > 0 {
		// One instrumented golden replay per workload; clones share the
		// resulting ladder, so the capture cost is paid once.
		if err := wb.BuildLadder(cfg.CheckpointEvery, cfg.MaxCheckpoints, cfg.WarmCaches); err != nil {
			return nil, fmt.Errorf("gefin: %w", err)
		}
		cfg.Obs.LadderMemory(spec.Name, wb.Ladder.MemoryBytes(), wb.Ladder.SharedBytes())
	}
	if cfg.Prune || cfg.Dedup || cfg.Exhaustive {
		// A second instrumented replay records the liveness log the
		// pre-filter, the equivalence-class partitioner, and the exhaustive
		// enumerator all classify against; clones share it too.
		if err := wb.BuildLiveness(cfg.WarmCaches); err != nil {
			return nil, fmt.Errorf("gefin: %w", err)
		}
	}
	return wb, nil
}

// planFor pre-draws the workload's full fault plan from the campaign
// seed. The plan is a pure function of (cfg, workload name, component
// sizes, golden cycle count), so every node of a distributed campaign
// derives the identical plan independently.
func planFor(cfg Config, wb *harness.Workbench, name string) ([]plannedFault, []uint64) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(hashString(name))))
	sizes := make([]uint64, len(cfg.Components))
	for ci, comp := range cfg.Components {
		sizes[ci] = fault.SizeBits(wb.Machine, comp)
	}
	return sampleFaults(cfg, sizes, wb.Golden.Cycles, rng), sizes
}

// execPlanned executes one pre-drawn injection on the workbench,
// emitting trace records and metrics when an observer is attached. It is
// the single per-injection execution path of the plan resolver, so a
// shard executed on a remote node takes exactly the code path of a local
// run. A non-nil probe runs the injection with propagation provenance;
// the probe is purely observational. tc stamps distributed trace context
// (campaign/shard/node/span) onto emitted records; the zero context
// stamps nothing.
func execPlanned(cfg Config, wb *harness.Workbench, workload string, probe *mem.Probe, p plannedFault, worker int, tc obs.TraceContext) outcome {
	var start time.Time
	if cfg.Obs.On() {
		start = time.Now()
	}
	var (
		class fault.Class
		ctx   fault.Context
		raw   soc.Result
		ls    soc.LadderStats
	)
	if probe != nil {
		class, ctx, raw, ls = wb.RunFaultProv(p.f, cfg.WarmCaches, probe)
	} else {
		class, ctx, raw, ls = wb.RunFaultLadder(p.f, cfg.WarmCaches)
	}
	o := outcome{class: class, valid: ctx.LineValid, kernel: ctx.KernelOwned(),
		cycles: raw.Cycles, outstr: raw.Outcome.String(), convMismatches: ls.VerifyMismatches}
	if probe.Armed() {
		o.mech = fault.MechanismOf(class, raw, probe)
	}
	if !cfg.Obs.On() {
		return o
	}
	stop := time.Now()
	cfg.Obs.LadderRun(ls)
	rec := obs.Record{
		Kind:       obs.KindInjection,
		Workload:   workload,
		Comp:       p.f.Comp,
		Bit:        p.f.Bit,
		Cycle:      p.f.Cycle,
		Worker:     worker,
		ExecCycles: raw.Cycles,
		Outcome:    o.outstr,
		Class:      class,
		Valid:      o.valid,
		Kernel:     o.kernel,
		FFCycles:   ls.FastForwarded,
		EarlyExit:  ls.EarlyExit,
	}
	if probe.Armed() {
		cfg.Obs.Mechanism(workload, p.f.Comp, o.mech)
		rec.Mechanism = o.mech.String()
		if ev, ok := probe.FirstRead(); ok {
			rec.ReadCycle, rec.ReadPC, rec.ReadReg = ev.Cycle, ev.PC, ev.Reg
		}
		rec.ProvEvents = append([]mem.ProbeEvent(nil), probe.Events()...)
		rec.ProvDropped = probe.Dropped()
		rec.DivergedAt, rec.ConvergedAt = ls.DivergedAt, ls.ConvergedAt
	}
	tc.Stamp(&rec)
	cfg.Obs.Record(rec, start, stop)
	return o
}

// aggregate folds per-plan-slot outcomes into the workload result, always
// in plan order (components outer, injections inner), so the aggregation
// is identical whether the outcomes were produced by one process or
// assembled from shards executed on many nodes. cuts (nil for the full
// plan) truncates each component to its sequential-stopping prefix:
// slots at or past a component's cut are discarded — including outcomes
// workers raced past the cut before it committed — so the truncated
// aggregation is a pure function of the plan-order prefix.
func aggregate(cfg Config, workload string, goldenCycles, goldenInstrs uint64, sizes []uint64, outcomes []outcome, cuts []int) *WorkloadResult {
	out := &WorkloadResult{
		Workload:     workload,
		Scale:        cfg.Scale,
		GoldenCycles: goldenCycles,
		GoldenInstrs: goldenInstrs,
	}
	for ci, comp := range cfg.Components {
		n := cfg.FaultsPerComponent
		if cuts != nil {
			n = cuts[ci]
		}
		out.Components = append(out.Components, ComponentResult{
			Comp:         comp,
			SizeBits:     sizes[ci],
			N:            n,
			Counts:       make(map[fault.Class]int, fault.NumClasses),
			ValidStruck:  make(map[fault.Class]int, fault.NumClasses),
			KernelStruck: make(map[fault.Class]int, fault.NumClasses),
		})
	}
	for i, o := range outcomes {
		ci := i / cfg.FaultsPerComponent
		if cuts != nil && i%cfg.FaultsPerComponent >= cuts[ci] {
			continue
		}
		res := &out.Components[ci]
		res.Counts[o.class]++
		if o.valid {
			res.ValidStruck[o.class]++
		}
		if o.kernel {
			res.KernelStruck[o.class]++
		}
	}
	return out
}

// runWorkload prepares the workload (workbench, plan, pre-filter and
// partition) and resolves its whole plan over the primary workbench plus
// as many clones as the pool grants. The side summaries carry whichever
// optional reports the configuration produced.
func runWorkload(cfg Config, spec bench.Spec, pool *sched.Pool, em *emitter) (*WorkloadResult, sideSummaries, error) {
	var side sideSummaries
	w, err := prepare(cfg, spec)
	if err != nil {
		return nil, side, err
	}
	em.addTotal(len(w.plan))

	// The commit controller streams plan-order tallies into the
	// convergence estimators and, with a target margin set, decides each
	// component's truncation point. Nil when neither is wanted.
	sc := newStopController(cfg, spec.Name, len(w.plan), obs.TraceContext{})
	r, err := w.resolve(0, len(w.plan), resolveEnv{
		sc: sc,
		em: em,
		extra: func(n int) ([]*harness.Workbench, error) {
			return claimClones(cfg, w.wb, pool, min(cfg.Workers-1, n))
		},
		release: pool.Release,
	})
	if err != nil {
		return nil, side, err
	}

	side.stop = sc.finish()
	cuts := sc.cuts()
	var counted func(i int) bool
	if cuts != nil {
		counted = func(i int) bool { return i%cfg.FaultsPerComponent < cuts[i/cfg.FaultsPerComponent] }
	}
	ps, ds := splits(r.via, func(i int) string { return w.pp.preds[i].Mech.String() }, counted)
	if w.pp != nil {
		ps.Mismatches = r.miss.prune
		if cfg.Verify {
			ps.Verified = ps.Predicted
		}
		side.prune = &ps
	}
	if w.dd != nil {
		ds.Classes, ds.MaxClass = w.dd.stats.Classes, w.dd.stats.MaxClass
		ds.Mismatches = r.miss.dedup
		if cfg.Verify {
			ds.Verified = ds.Deduped
		}
		side.dedup = &ds
	}
	if err := r.miss.err(spec.Name); err != nil {
		return nil, side, err
	}
	if cfg.Exhaustive {
		res, sweep := aggregateExhaustive(cfg, spec.Name, w.wb.Golden.Cycles, w.wb.Golden.Instructions, w.sizes, w.ep, r.outcomes)
		side.sweep = sweep
		return res, side, nil
	}
	return aggregate(cfg, spec.Name, w.wb.Golden.Cycles, w.wb.Golden.Instructions, w.sizes, r.outcomes, cuts), side, nil
}

// claimClones claims up to n extra worker workbenches from the pool. A
// clone is one kernel boot each; claiming them up-front surfaces a boot
// failure before any injection runs.
func claimClones(cfg Config, wb *harness.Workbench, pool *sched.Pool, n int) ([]*harness.Workbench, error) {
	var clones []*harness.Workbench
	for len(clones) < n {
		ok := pool.TryAcquire()
		cfg.Obs.CloneTry(ok)
		if !ok {
			break
		}
		clone, err := wb.Clone()
		if err != nil {
			pool.Release()
			for range clones {
				pool.Release()
			}
			return nil, fmt.Errorf("gefin: %w", err)
		}
		clones = append(clones, clone)
	}
	return clones, nil
}

// emitter adapts the shared meter to gefin progress events, adding the
// per-(workload, component) completion counts, and feeds every meter
// snapshot into the observability gauges. All mutable state is only
// touched inside Meter.Tick's lock, which also serialises the user
// callback.
type emitter struct {
	meter *sched.Meter
	fn    Progress
	ob    *obs.Observer
	done  map[compKey]int
}

type compKey struct {
	workload string
	comp     fault.Component
}

// newEmitter returns nil when there is neither a callback nor an
// observer: a nil emitter's methods are no-ops, so the hot path pays
// nothing for unused progress.
func newEmitter(fn Progress, ob *obs.Observer) *emitter {
	if fn == nil && !ob.On() {
		return nil
	}
	return &emitter{meter: sched.NewMeter(), fn: fn, ob: ob, done: make(map[compKey]int)}
}

func (e *emitter) addTotal(n int) {
	if e != nil {
		e.meter.AddTotal(n)
	}
}

func (e *emitter) workerStarted() {
	if e != nil {
		e.meter.WorkerStarted()
	}
}

func (e *emitter) workerDone() {
	if e != nil {
		e.meter.WorkerDone()
	}
}

func (e *emitter) tick(workload string, comp fault.Component, totalPerComp int) {
	if e == nil {
		return
	}
	e.meter.Tick(func(s sched.Snapshot) {
		e.ob.MeterTick(s)
		if e.fn == nil {
			return
		}
		key := compKey{workload, comp}
		e.done[key]++
		e.fn(ProgressEvent{
			Workload:      workload,
			Comp:          comp,
			Done:          e.done[key],
			Total:         totalPerComp,
			CampaignDone:  s.Done,
			CampaignTotal: s.Total,
			Workers:       s.Workers,
			Rate:          s.Rate,
			ETA:           s.ETA,
		})
	})
}
