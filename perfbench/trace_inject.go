package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/ace"
	"armsefi/internal/core/equiv"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/core/harness"
	"armsefi/internal/obs"
	"armsefi/internal/soc"
)

// injectAccelTraced re-drives each campaign layer by layer. Per campaign
// it runs the engine untraced (the reference digest and wall), runs it
// again with the engine's trace records collected in memory (the plan
// and each slot's class), then resolves exactly that plan through the
// layers' public functions, timing every call: bench.Spec.Build,
// harness.New, BuildLadder, BuildLiveness, ace.Predict, equiv.Partition,
// Clone, Workbench.RunFaultLadder and gefin.AssembleWorkload. The replay
// must reassemble to the untraced digest and every simulated slot must
// reproduce its recorded class.
func injectAccelTraced(b *session) error {
	l := newLayers()
	seed := warmupSeed(0)
	_, v := b.runInject(seed, WarmupFaults)
	b.observe("inject-accel/setup", seed, v)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < b.opts.seconds; i++ {
		seed := campaignSeed(b.opts.seed, i)
		t0 := time.Now()
		res, v := b.runInject(seed, FaultsPerComponent)
		untraced := time.Since(t0).Seconds()
		b.observe("inject-accel", seed, v)
		if !v.returned {
			continue
		}
		sink := &recordSink{}
		o := obs.New(obs.Options{})
		o.Tee(sink)
		cfg := injectConfig(seed, b.opts.nproc, FaultsPerComponent)
		cfg.Obs = o
		traced, err := gefin.Run(cfg, specs(injectWorkloads), nil)
		if err != nil {
			b.fail("seed %d: traced engine run: %v", seed, err)
			continue
		}
		if d := digestOf(traced.Workloads); d != v.digest {
			b.fail("seed %d: engine run with trace records has digest %s, untraced %s", seed, d[:16], v.digest[:16])
			continue
		}
		cfg.Obs = nil
		pred0, dedup0, sim0 := l.predicted, l.deduped, l.simulated
		rp, err := replayInject(cfg, sink.take(), b.opts.nproc, l)
		if err != nil {
			b.fail("seed %d: replay: %v", seed, err)
			continue
		}
		if d := digestOf(rp.workloads); d != v.digest {
			b.fail("seed %d: replay reassembles to digest %s, untraced %s", seed, d[:16], v.digest[:16])
			continue
		}
		pred, dedup, sim := l.predicted-pred0, l.deduped-dedup0, l.simulated-sim0
		if pred != res.Prune.Predicted || dedup != res.Dedup.Deduped || pred+dedup+sim != injectPlanLen() {
			b.fail("seed %d: replay resolved predicted %d deduped %d simulated %d; engine predicted %d deduped %d; plan %d",
				seed, pred, dedup, sim, res.Prune.Predicted, res.Dedup.Deduped, injectPlanLen())
			continue
		}
		l.campaigns++
		l.untracedWall = append(l.untracedWall, untraced)
		l.tracedWall = append(l.tracedWall, rp.wall.seconds())
		l.uncovered = append(l.uncovered, uncoveredShare(rp.wall, rp.spans))
	}
	if l.campaigns == 0 {
		return fmt.Errorf("inject-accel: no campaign replayed")
	}
	l.emit(b)
	if err := reconcile(l.predicted, l.deduped, l.simulated, l.plan); err != nil {
		b.fail("%v", err)
	}
	return nil
}

// replayed is one campaign resolved layer by layer.
type replayed struct {
	workloads []gefin.WorkloadResult
	wall      span
	spans     []span
}

// slotKey identifies a planned injection across the engine's records
// and the replay.
type slotKey struct {
	workload string
	f        fault.Fault
}

// planFromRecords rebuilds a workload's plan from the engine's trace
// records: components in the Config's order, each component's faults in
// (bit, cycle) order. Aggregation counts per component, so the order
// inside a component does not change the assembled Result. It also
// returns each slot's recorded class.
func planFromRecords(recs []obs.Record, cfg gefin.Config, workload string) ([]fault.Fault, map[slotKey]fault.Class, error) {
	byComp := make(map[fault.Component][]fault.Fault)
	classes := make(map[slotKey]fault.Class)
	for _, r := range recs {
		if r.Kind != obs.KindInjection || r.Workload != workload {
			continue
		}
		f := fault.Fault{Comp: r.Comp, Bit: r.Bit, Cycle: r.Cycle}
		k := slotKey{workload, f}
		if c, ok := classes[k]; ok && c != r.Class {
			return nil, nil, fmt.Errorf("%s: fault %v recorded with classes %v and %v", workload, f, c, r.Class)
		}
		classes[k] = r.Class
		byComp[r.Comp] = append(byComp[r.Comp], f)
	}
	var plan []fault.Fault
	for _, c := range cfg.Components {
		fs := byComp[c]
		if len(fs) != cfg.FaultsPerComponent {
			return nil, nil, fmt.Errorf("%s/%v: %d trace records, want %d", workload, c, len(fs), cfg.FaultsPerComponent)
		}
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].Bit != fs[j].Bit {
				return fs[i].Bit < fs[j].Bit
			}
			return fs[i].Cycle < fs[j].Cycle
		})
		plan = append(plan, fs...)
	}
	return plan, classes, nil
}

// simOutcome is one simulated slot of the replay.
type simOutcome struct {
	class  fault.Class
	valid  bool
	kernel bool
}

// replayInject resolves one campaign's plan workload by workload through
// the layers' public functions, accumulating spans and counts into l.
func replayInject(cfg gefin.Config, recs []obs.Record, nproc int, l *layers) (*replayed, error) {
	rp := &replayed{wall: span{start: time.Now()}}
	l.goldenCycles = 0
	l.ladderBytes, l.ladderShrd = 0, 0
	for _, spec := range specs(injectWorkloads) {
		wr, err := replayWorkload(cfg, spec, recs, nproc, l, rp)
		if err != nil {
			return nil, err
		}
		rp.workloads = append(rp.workloads, *wr)
	}
	rp.wall.end = time.Now()
	return rp, nil
}

func replayWorkload(cfg gefin.Config, spec bench.Spec, recs []obs.Record, nproc int, l *layers, rp *replayed) (*gefin.WorkloadResult, error) {
	plan, recorded, err := planFromRecords(recs, cfg, spec.Name)
	if err != nil {
		return nil, err
	}
	// layer records a span into the campaign's span list and a layer sum.
	layer := func(sum *float64, fn func()) {
		s := timed(fn)
		rp.spans = append(rp.spans, s)
		*sum += s.seconds()
	}

	var built *bench.Built
	layer(&l.buildS, func() { built, err = spec.Build(soc.UserAsmConfig(), cfg.Scale) })
	if err != nil {
		return nil, err
	}
	var wb *harness.Workbench
	layer(&l.newS, func() { wb, err = harness.New(cfg.Preset, cfg.Model, built) })
	if err != nil {
		return nil, err
	}
	l.goldenCycles += wb.Golden.Cycles
	layer(&l.ladderS, func() { err = wb.BuildLadder(cfg.CheckpointEvery, cfg.MaxCheckpoints, cfg.WarmCaches) })
	if err != nil {
		return nil, err
	}
	l.ladderBytes += int64(wb.Ladder.MemoryBytes())
	l.ladderShrd += int64(wb.Ladder.SharedBytes())
	layer(&l.livenessS, func() { err = wb.BuildLiveness(cfg.WarmCaches) })
	if err != nil {
		return nil, err
	}

	outs := make([]gefin.ShardOutcome, len(plan))
	decided := make([]bool, len(plan))
	layer(&l.predictS, func() {
		for i, f := range plan {
			t0 := time.Now()
			pred, ok := ace.Predict(wb.Liveness, f)
			ns := time.Since(t0).Nanoseconds()
			if !ok {
				continue
			}
			decided[i] = true
			outs[i] = gefin.ShardOutcome{Class: pred.Class, Valid: pred.Valid, Kernel: pred.Kernel, Predicted: true}
			l.cost.add(f.Comp, pathPredicted, ns, 0, false)
			l.predicted++
		}
	})

	var classes []equiv.Class
	layer(&l.partitionS, func() {
		classes = equiv.Partition(wb.Liveness, plan, func(i int) bool { return !decided[i] })
	})
	member := make([]bool, len(plan))
	for _, cl := range classes {
		for _, m := range cl.Members[1:] {
			member[m] = true
		}
	}
	l.classes += len(classes)

	// The simulator resolves every slot neither predicted nor a class
	// member, in injection-cycle order as the engine drains it.
	var order []int
	for i := range plan {
		if !decided[i] {
			l.undecided++
			if !member[i] {
				order = append(order, i)
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return plan[order[a]].Cycle < plan[order[b]].Cycle })

	benches := []*harness.Workbench{wb}
	extras := min(nproc-1, len(order)-1)
	for len(benches) < extras+1 {
		var c *harness.Workbench
		layer(&l.cloneS, func() { c, err = wb.Clone() })
		if err != nil {
			return nil, err
		}
		benches = append(benches, c)
	}

	sims := make([]simOutcome, len(plan))
	type runStat struct {
		path    string
		ns      int64
		cycles  uint64
		ff      uint64
		ranSlot bool
	}
	stats := make([]runStat, len(plan))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	simSpan := timed(func() {
		for _, w := range benches {
			wg.Add(1)
			go func(w *harness.Workbench) {
				defer wg.Done()
				for {
					k := int(cursor.Add(1) - 1)
					if k >= len(order) {
						return
					}
					i := order[k]
					t0 := time.Now()
					class, ctx, res, ls := w.RunFaultLadder(plan[i], cfg.WarmCaches)
					ns := time.Since(t0).Nanoseconds()
					sims[i] = simOutcome{class: class, valid: ctx.LineValid, kernel: ctx.KernelOwned()}
					path := pathCompleted
					switch {
					case ls.EarlyExit:
						path = pathEarlyExit
					case res.Outcome == soc.OutcomeTimeout:
						path = pathTimeout
					}
					stats[i] = runStat{path: path, ns: ns, cycles: res.Cycles - ls.FastForwarded - ls.TailSaved, ff: ls.FastForwarded, ranSlot: true}
				}
			}(w)
		}
		wg.Wait()
	})
	rp.spans = append(rp.spans, simSpan)
	for i, st := range stats {
		if !st.ranSlot {
			continue
		}
		l.addSimulated(plan[i].Comp, st.path, st.ns, st.cycles, st.ff, true)
		l.simulated++
		if want := recorded[slotKey{spec.Name, plan[i]}]; sims[i].class != want {
			return nil, fmt.Errorf("%s: fault %v simulated to %v, engine recorded %v", spec.Name, plan[i], sims[i].class, want)
		}
		outs[i] = gefin.ShardOutcome{Class: sims[i].class, Valid: sims[i].valid, Kernel: sims[i].kernel}
	}
	// Members take their representative's outcome, as the engine does.
	for _, cl := range classes {
		rep := outs[cl.Rep]
		for _, m := range cl.Members[1:] {
			outs[m] = gefin.ShardOutcome{Class: rep.Class, Valid: rep.Valid, Kernel: rep.Kernel, Dedup: true}
			l.cost.add(plan[m].Comp, pathDeduped, 0, 0, false)
			l.deduped++
		}
	}
	for i, f := range plan {
		if decided[i] && outs[i].Class != recorded[slotKey{spec.Name, f}] {
			return nil, fmt.Errorf("%s: fault %v predicted %v, engine recorded %v", spec.Name, f, outs[i].Class, recorded[slotKey{spec.Name, f}])
		}
	}
	l.plan += len(plan)

	sizes := make([]uint64, len(cfg.Components))
	for ci, c := range cfg.Components {
		sizes[ci] = fault.SizeBits(wb.Machine, c)
	}
	meta := gefin.ShardMeta{GoldenCycles: wb.Golden.Cycles, GoldenInstrs: wb.Golden.Instructions, SizeBits: sizes}
	var wr *gefin.WorkloadResult
	layer(&l.assembleS, func() { wr, err = gefin.AssembleWorkload(cfg, spec.Name, meta, outs) })
	return wr, err
}
