package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
)

// beamLiveTraced runs each campaign untraced through beam.Run (the
// reference digest and wall), then runs its component chains through
// nproc beam.ShardRunners — one per worker, each caching its own
// workbench per workload, as service workers do — with an observer
// collecting the strike records in memory, and reassembles them with
// beam.AssembleWorkload. The reassembled digest must equal beam.Run's.
func beamLiveTraced(b *session) error {
	l := newLayers()
	seed := warmupSeed(0)
	_, v := b.runBeam(seed, WarmupStrikes)
	b.observe("beam-live/setup", seed, v)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < b.opts.seconds; i++ {
		seed := campaignSeed(b.opts.seed, i)
		t0 := time.Now()
		_, v := b.runBeam(seed, StrikesPerComponent)
		untraced := time.Since(t0).Seconds()
		b.observe("beam-live", seed, v)
		if !v.returned {
			continue
		}
		if err := replayBeam(b, l, seed, untraced, v.digest); err != nil {
			b.fail("seed %d: %v", seed, err)
		}
	}
	if l.campaigns == 0 {
		return fmt.Errorf("beam-live: no campaign replayed")
	}
	l.emit(b)
	return nil
}

// chainRun is one component chain executed through a ShardRunner.
type chainRun struct {
	workload int
	comp     int
	first    bool // the runner's first chain of the workload: includes workbench set-up
	exec     span
	out      *beam.ChainOutcome
	meta     beam.ShardMeta
	err      error
}

func replayBeam(b *session, l *layers, seed int64, untraced float64, want string) error {
	sink := &recordSink{}
	o := obs.New(obs.Options{})
	o.Tee(sink)
	cfg := beamConfig(seed, b.opts.nproc, StrikesPerComponent)
	cfg.Obs = o
	names := beamWorkloads
	ws := specs(names)
	comps := fault.Components()

	wall := span{start: time.Now()}
	runs := make([]*chainRun, 0, len(ws)*len(comps))
	for wi := range ws {
		for ci := range comps {
			runs = append(runs, &chainRun{workload: wi, comp: ci})
		}
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	chains := timed(func() {
		for w := 0; w < b.opts.nproc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := beam.NewShardRunner(cfg)
				seen := make(map[int]bool)
				for {
					k := int(cursor.Add(1) - 1)
					if k >= len(runs) {
						return
					}
					run := runs[k]
					run.first = !seen[run.workload]
					seen[run.workload] = true
					run.exec = timed(func() { run.out, run.meta, run.err = r.RunShard(ws[run.workload], run.comp) })
				}
			}()
		}
		wg.Wait()
	})
	var out []beam.WorkloadResult
	spans := []span{chains}
	var assembleMs float64
	for wi, name := range names {
		outs := make([]*beam.ChainOutcome, len(comps))
		var meta beam.ShardMeta
		for _, run := range runs {
			if run.workload != wi {
				continue
			}
			if run.err != nil {
				return fmt.Errorf("%s chain %v: %w", name, comps[run.comp], run.err)
			}
			outs[run.comp], meta = run.out, run.meta
		}
		var wr *beam.WorkloadResult
		var err error
		s := timed(func() { wr, err = beam.AssembleWorkload(cfg, name, meta, outs) })
		if err != nil {
			return err
		}
		spans = append(spans, s)
		assembleMs += s.seconds() * 1e3
		out = append(out, *wr)
	}
	wall.end = time.Now()
	if d := digestOf(out); d != want {
		return fmt.Errorf("chains reassemble to digest %s, beam.Run %s", d[:16], want[:16])
	}

	// Strike records: per-chain strike time and the simulate cost rows.
	// A strike whose run ended masked is followed by a second, latent-
	// corruption execution inside the same record. Its cycles are not
	// recorded; both executions run the workload once on the same board,
	// so the follow-up is counted at the strike run's own cycle count.
	type chainKey struct {
		workload string
		comp     fault.Component
	}
	strikeNs := make(map[chainKey]int64)
	strikes := 0
	for _, r := range sink.take() {
		if r.Kind != obs.KindStrike {
			continue
		}
		strikes++
		strikeNs[chainKey{r.Workload, r.Comp}] += r.WallNS
		l.strikeMs = append(l.strikeMs, float64(r.WallNS)/1e6)
		switch {
		case r.Class == fault.ClassMasked || r.Followup:
			l.addSimulated(r.Comp, pathFollowup, r.WallNS, 2*r.ExecCycles, 0, true)
		case r.Outcome == "timeout":
			l.addSimulated(r.Comp, pathTimeout, r.WallNS, r.ExecCycles, 0, true)
		default:
			l.addSimulated(r.Comp, pathCompleted, r.WallNS, r.ExecCycles, 0, true)
		}
	}
	if want := len(names) * len(comps) * StrikesPerComponent; strikes != want {
		return fmt.Errorf("%d strike records, want %d", strikes, want)
	}
	maxChain := 0.0
	for _, run := range runs {
		c := comps[run.comp]
		s := float64(strikeNs[chainKey{names[run.workload], c}]) / 1e9
		l.chainS[c] = append(l.chainS[c], s)
		maxChain = max(maxChain, s)
		if run.first {
			l.prepareS = append(l.prepareS, run.exec.seconds()-s)
		}
	}
	l.chainMax = append(l.chainMax, maxChain)
	l.strikes += strikes
	l.assembleMs = append(l.assembleMs, assembleMs)
	l.goldenCycles = 0
	for _, w := range out {
		l.goldenCycles += w.GoldenCycles
	}
	l.campaigns++
	l.untracedWall = append(l.untracedWall, untraced)
	l.tracedWall = append(l.tracedWall, wall.seconds())
	l.uncovered = append(l.uncovered, uncoveredShare(wall, spans))
	return nil
}
