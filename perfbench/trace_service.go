package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"armsefi/internal/core/gefin"
	"armsefi/internal/obs"
	"armsefi/internal/serve"
)

// sourceProbe wraps one worker loop's Source, timing Claim and Complete
// and the shard execution between them (Claim return to Complete call).
// It keeps every completed payload so the benchmark can reassemble the
// campaign itself.
type sourceProbe struct {
	inner serve.Source
	loop  int
	st    *serviceTrace
}

// shardRun is one shard execution seen by a probe.
type shardRun struct {
	a       *serve.Assignment
	loop    int
	claimed time.Time
	payload *serve.ShardPayload
	exec    span
}

// serviceTrace collects the probes' observations, per campaign.
type serviceTrace struct {
	mu sync.Mutex
	// claims logs every Claim since the last hand-over; only those inside
	// a traced campaign's window count, since the loops also poll while
	// the untraced service runs its copy of the campaign.
	claims     []claimCall
	completeMs []float64
	open       map[string]*shardRun // campaign/shard -> in flight
	done       map[string][]*shardRun
	spans      map[string][]span
	lastDone   map[string]time.Time
	// completing counts Complete calls in flight per campaign: a campaign
	// is handed over only once all have returned.
	completing map[string]int
}

func newServiceTrace() *serviceTrace {
	return &serviceTrace{
		open:       make(map[string]*shardRun),
		done:       make(map[string][]*shardRun),
		spans:      make(map[string][]span),
		lastDone:   make(map[string]time.Time),
		completing: make(map[string]int),
	}
}

// claimCall is one Claim seen by a probe.
type claimCall struct {
	at    span
	empty bool
}

func shardID(campaign string, shard int) string { return fmt.Sprintf("%s/%d", campaign, shard) }

// Claim implements serve.Source.
func (p *sourceProbe) Claim(node string) (*serve.Assignment, error) {
	s := span{start: time.Now()}
	a, err := p.inner.Claim(node)
	s.end = time.Now()
	p.st.mu.Lock()
	defer p.st.mu.Unlock()
	p.st.claims = append(p.st.claims, claimCall{at: s, empty: a == nil})
	if a == nil {
		return a, err
	}
	p.st.spans[a.Campaign] = append(p.st.spans[a.Campaign], s)
	p.st.open[shardID(a.Campaign, a.Shard)] = &shardRun{a: a, loop: p.loop, claimed: s.end}
	return a, err
}

// Renew implements serve.Source.
func (p *sourceProbe) Renew(node, campaign string, shard int) error {
	return p.inner.Renew(node, campaign, shard)
}

// Complete implements serve.Source. The shard run is recorded before
// the call, so it is in hand by the time the coordinator can report the
// campaign complete.
func (p *sourceProbe) Complete(node, campaign string, shard int, span64 int64, payload *serve.ShardPayload) error {
	called := time.Now()
	p.st.mu.Lock()
	if r := p.st.open[shardID(campaign, shard)]; r != nil {
		delete(p.st.open, shardID(campaign, shard))
		r.payload = payload
		r.exec = span{r.claimed, called}
		p.st.done[campaign] = append(p.st.done[campaign], r)
		p.st.spans[campaign] = append(p.st.spans[campaign], r.exec)
	}
	p.st.completing[campaign]++
	p.st.mu.Unlock()
	err := p.inner.Complete(node, campaign, shard, span64, payload)
	returned := time.Now()
	p.st.mu.Lock()
	defer p.st.mu.Unlock()
	p.st.completing[campaign]--
	p.st.completeMs = append(p.st.completeMs, float64(returned.Sub(called))/1e6)
	p.st.spans[campaign] = append(p.st.spans[campaign], span{called, returned})
	if returned.After(p.st.lastDone[campaign]) {
		p.st.lastDone[campaign] = returned
	}
	return err
}

// injectServiceTraced runs each campaign twice: on an untraced service
// (the reference wall) and on a traced one whose worker Sources are
// wrapped by sourceProbe and whose workers carry an observer collecting
// the engine's trace records in memory. The client calls are timed from
// here. The benchmark reassembles every traced campaign from its shard
// payloads with gefin.AssembleWorkload and requires the service's digest.
func injectServiceTraced(b *session) error {
	st := newServiceTrace()
	sink := &recordSink{}
	wobs := obs.New(obs.Options{})
	wobs.Tee(sink)
	var plain, traced *service
	stop := func() {
		if err := errors.Join(plain.stop(), traced.stop()); err != nil {
			b.fail("service shutdown: %v", err)
		}
	}
	start := func() error {
		var err error
		if plain, err = startService(b.opts, nil, nil); err != nil {
			return err
		}
		traced, err = startService(b.opts, func(loop int, s serve.Source) serve.Source {
			return &sourceProbe{inner: s, loop: loop, st: st}
		}, wobs)
		if err != nil {
			if serr := plain.stop(); serr != nil {
				b.fail("service shutdown: %v", serr)
			}
		}
		return err
	}
	if err := start(); err != nil {
		return err
	}
	defer stop()
	seed := warmupSeed(0)
	_, v := plain.runInject(b, seed, WarmupFaults, nil)
	b.observe("inject-service/setup", seed, v)
	var cs clientSpans
	_, v = traced.runInject(b, seed, WarmupFaults, &cs)
	b.observe("inject-service/setup", seed, v)
	st.campaign(cs.id, span{})
	sink.take()

	l := newLayers()
	begin := time.Now()
	for i := 0; i == 0 || time.Since(begin).Seconds() < b.opts.seconds; i++ {
		if i > 0 && i%ServiceSession == 0 {
			stop()
			if err := start(); err != nil {
				return err
			}
		}
		seed := campaignSeed(b.opts.seed, i)
		t0 := time.Now()
		_, v := plain.runInject(b, seed, FaultsPerComponent, nil)
		untraced := time.Since(t0).Seconds()
		b.observe("inject-service", seed, v)
		var cs clientSpans
		res, tv := traced.runInject(b, seed, FaultsPerComponent, &cs)
		b.observe("inject-service/traced", seed, tv)
		if !v.returned || !tv.returned {
			continue
		}
		if tv.digest != v.digest {
			b.fail("seed %d: traced service digest %s, untraced %s", seed, tv.digest[:16], v.digest[:16])
			continue
		}
		runs, spans, lastDone, claims := st.campaign(cs.id, span{cs.submit.start, cs.wait.end})
		for _, c := range claims {
			l.claims++
			l.claimMs = append(l.claimMs, float64(c.at.end.Sub(c.at.start))/1e6)
			if c.empty {
				l.emptyClaims++
			}
		}
		if err := reassembleService(b, l, seed, runs, tv.digest); err != nil {
			b.fail("seed %d: %v", seed, err)
			continue
		}
		// The engine's trace records of this campaign, stamped with its id.
		var pred, dedup, sim, plan int
		for _, r := range sink.take() {
			if r.Kind != obs.KindInjection || r.Campaign != cs.id {
				continue
			}
			l.addInjectionRecord(r)
			switch {
			case r.Predicted:
				pred++
			case r.Dedup:
				dedup++
			default:
				sim++
			}
			plan++
		}
		if plan != injectPlanLen() || pred != res.Prune.Predicted || dedup != res.Dedup.Deduped || pred+dedup+sim != plan {
			b.fail("seed %d: trace records resolve predicted %d deduped %d simulated %d of %d; Result predicted %d deduped %d; plan %d",
				seed, pred, dedup, sim, plan, res.Prune.Predicted, res.Dedup.Deduped, injectPlanLen())
			continue
		}
		if res.Prune.Simulated != sim {
			fmt.Printf("seed %d: Result.Prune.Simulated %d counts dedup-materialized slots; simulator runs %d\n", seed, res.Prune.Simulated, sim)
		}
		// Each loop's first shard of a workload pays its workbench set-up.
		first := make(map[string]bool)
		for _, r := range runs {
			l.shardS = append(l.shardS, r.exec.seconds())
			key := fmt.Sprintf("%d/%s", r.loop, r.a.Workload)
			if !first[key] {
				first[key] = true
				l.first = append(l.first, r.exec.seconds())
			}
		}
		l.goldenCycles = 0
		for _, w := range res.Workloads {
			l.goldenCycles += w.GoldenCycles
		}
		l.ladderBytes, l.ladderShrd = wobs.LadderMemoryTotals()
		l.campaigns++
		l.submitMs = append(l.submitMs, cs.submit.seconds()*1e3)
		l.fetchMs = append(l.fetchMs, cs.fetch.seconds()*1e3)
		l.resultLagS = append(l.resultLagS, cs.wait.end.Sub(lastDone).Seconds())
		wall := span{cs.submit.start, cs.fetch.end}
		l.untracedWall = append(l.untracedWall, untraced)
		l.tracedWall = append(l.tracedWall, wall.seconds())
		l.uncovered = append(l.uncovered, uncoveredShare(wall, append(spans, cs.submit, cs.fetch)))
	}
	if l.campaigns == 0 {
		return fmt.Errorf("inject-service: no traced campaign completed")
	}
	st.mu.Lock()
	l.completeMs = st.completeMs
	st.mu.Unlock()
	l.emit(b)
	if err := reconcile(l.predicted, l.deduped, l.simulated, l.plan); err != nil {
		b.fail("%v", err)
	}
	return nil
}

// campaign hands over the shard runs of campaign id once every
// Complete call of it has returned, with the Claim calls made inside
// window, and forgets every earlier Claim.
func (st *serviceTrace) campaign(id string, window span) (runs []*shardRun, spans []span, lastDone time.Time, claims []claimCall) {
	for {
		st.mu.Lock()
		if st.completing[id] == 0 {
			break
		}
		st.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	defer st.mu.Unlock()
	for _, c := range st.claims {
		if !c.at.start.Before(window.start) && !c.at.end.After(window.end) {
			claims = append(claims, c)
		}
	}
	st.claims = nil
	runs, spans, lastDone = st.done[id], st.spans[id], st.lastDone[id]
	delete(st.done, id)
	delete(st.spans, id)
	delete(st.lastDone, id)
	delete(st.completing, id)
	return runs, spans, lastDone, claims
}

// reassembleService rebuilds each workload from the campaign's shard
// payloads with gefin.AssembleWorkload, timing it, and requires the
// service Result's digest.
func reassembleService(b *session, l *layers, seed int64, runs []*shardRun, want string) error {
	byWorkload := make(map[string][]*shardRun)
	for _, r := range runs {
		byWorkload[r.a.Workload] = append(byWorkload[r.a.Workload], r)
	}
	cfg := injectConfig(seed, b.opts.nproc, FaultsPerComponent)
	var out []gefin.WorkloadResult
	for _, name := range injectWorkloads {
		rs := byWorkload[name]
		sort.Slice(rs, func(i, j int) bool { return rs[i].a.Lo < rs[j].a.Lo })
		var outs []gefin.ShardOutcome
		var meta gefin.ShardMeta
		for _, r := range rs {
			if r.payload == nil || r.payload.InjMeta == nil {
				return fmt.Errorf("%s shard [%d,%d): no injection payload", name, r.a.Lo, r.a.Hi)
			}
			outs = append(outs, r.payload.Outcomes...)
			meta = *r.payload.InjMeta
		}
		var wr *gefin.WorkloadResult
		var err error
		s := timed(func() { wr, err = gefin.AssembleWorkload(cfg, name, meta, outs) })
		if err != nil {
			return err
		}
		l.assembleS += s.seconds()
		out = append(out, *wr)
	}
	if d := digestOf(out); d != want {
		return fmt.Errorf("shard payloads reassemble to digest %s, service Result %s", d[:16], want[:16])
	}
	return nil
}
