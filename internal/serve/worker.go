// Worker loop of the campaign service. A worker node repeatedly claims
// shard leases from a Source (the in-process Coordinator, or a remote
// campaignd through Client — the loop cannot tell them apart), executes
// each shard through the engines' ShardRunner APIs, renews the lease in
// the background while the shard runs, and reports the durable result.
// Execution goes through the exact same per-injection code path as an
// in-process campaign, so results are bit-identical by construction.

package serve

import (
	"context"
	"fmt"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/beam"
	"armsefi/internal/core/gefin"
	"armsefi/internal/core/sched"
	"armsefi/internal/obs"
)

// Source is the coordinator surface a worker needs. *Coordinator
// implements it directly (local workers), *Client implements it over
// HTTP (remote workers). Complete echoes the Assignment's span so the
// coordinator can mark the winning execution in the merged fleet trace.
type Source interface {
	Claim(node string) (*Assignment, error)
	Renew(node, campaign string, shard int) error
	Complete(node, campaign string, shard int, span int64, payload *ShardPayload) error
}

// WorkerConfig parameterises one worker loop.
type WorkerConfig struct {
	// Node identifies this worker in leases and trace records.
	Node string
	// Source hands out shard leases.
	Source Source
	// Pool, when set, bounds concurrent shard execution across every
	// worker loop sharing it: the loop holds one slot per in-flight
	// shard, so N loops over a cap-K pool run at most K simulated
	// machines. Nil means unbounded.
	Pool *sched.Pool
	// Worker tags trace records emitted by this loop's shard runs.
	Worker int
	// Obs, when set, instruments shard execution: every injection/strike
	// the shard runs is traced (and, when the observer is teed into a
	// telemetry Shipper, federated to the coordinator) stamped with the
	// assignment's trace context. Nil keeps execution unobserved — the
	// engines pay zero.
	Obs *obs.Observer
	// PollInterval is the idle back-off when no shard is claimable.
	// Zero picks 200ms.
	PollInterval time.Duration
}

// RunWorker claims and executes shards until ctx is cancelled. On
// cancellation the loop stops claiming; a shard already executing
// finishes and reports (simulated machine runs are not interruptible
// mid-injection without losing the lease's work). It returns the number
// of shards completed and the first execution error, if any (claim
// errors are retried, not returned).
func RunWorker(ctx context.Context, cfg WorkerConfig) (int, error) {
	if cfg.Source == nil {
		return 0, fmt.Errorf("serve: worker needs a source")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	var rs runners
	// One convergence tally per injection campaign: the node's cumulative
	// per-(workload, component, class) counts over the shards it executed,
	// emitted through the observer after each shard (the telemetry shipper
	// intercepts the records and federates the snapshots). Beam campaigns
	// stream theirs from inside the chain via ShardRunner.Conv.
	injConvs := make(map[string]*injConvTally)
	done := 0
	for {
		if ctx.Err() != nil {
			return done, nil
		}
		if cfg.Pool != nil {
			if err := cfg.Pool.AcquireCtx(ctx); err != nil {
				return done, nil // cancelled while waiting for a slot
			}
		}
		a, err := cfg.Source.Claim(cfg.Node)
		if err != nil || a == nil {
			if cfg.Pool != nil {
				cfg.Pool.Release()
			}
			select {
			case <-ctx.Done():
				return done, nil
			case <-time.After(cfg.PollInterval):
			}
			continue
		}
		payload, execErr := executeShard(ctx, cfg, a, &rs, injConvs)
		if execErr == nil {
			execErr = cfg.Source.Complete(cfg.Node, a.Campaign, a.Shard, a.Span, payload)
		}
		if cfg.Pool != nil {
			cfg.Pool.Release()
		}
		if execErr != nil {
			return done, fmt.Errorf("serve: node %s campaign %s shard %d: %w", cfg.Node, a.Campaign, a.Shard, execErr)
		}
		done++
	}
}

// runners holds a worker loop's shard runner: one, for the campaign the
// latest claim named. A runner caches its campaign's prepared workbenches
// (boot, golden run, ladder, liveness log — hundreds of megabytes), so
// consecutive shards of the campaign pay no setup, and the loop drops it
// as soon as a claim names another campaign. A requeued shard of an
// earlier campaign then prepares its workbench again.
type runners struct {
	campaign string
	inj      *gefin.ShardRunner
	beam     *beam.ShardRunner
}

// use switches the holder to campaign, dropping another campaign's runner.
func (rs *runners) use(campaign string) {
	if rs.campaign != campaign {
		*rs = runners{campaign: campaign}
	}
}

// executeShard runs one assignment, renewing the lease at a third of its
// TTL while the simulated machine works.
func executeShard(ctx context.Context, cfg WorkerConfig, a *Assignment, rs *runners,
	injConvs map[string]*injConvTally) (*ShardPayload, error) {

	spec, ok := bench.ByName(a.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", a.Workload)
	}

	stopRenew := renewLoop(ctx, cfg, a)
	defer stopRenew()

	// tc correlates every record the shard emits with this execution:
	// campaign, shard index, this node, and the coordinator-minted span.
	tc := obs.TraceContext{Campaign: a.Campaign, Shard: a.Shard, Node: cfg.Node, Span: a.Span}

	switch a.Kind {
	case KindInjection:
		if a.Injection == nil {
			return nil, fmt.Errorf("injection assignment without config")
		}
		rs.use(a.Campaign)
		r := rs.inj
		if r == nil {
			// Copy the config before attaching the worker's observer: the
			// assignment may share the coordinator's manifest pointer when
			// the source is in-process.
			cc := *a.Injection
			cc.Obs = cfg.Obs
			r = gefin.NewShardRunner(cc)
			r.Worker = cfg.Worker
			rs.inj = r
		}
		r.Ctx = tc
		outs, meta, err := r.RunShard(spec, a.Lo, a.Hi)
		if err != nil {
			return nil, err
		}
		if cfg.Obs.On() {
			ct, ok := injConvs[a.Campaign]
			if !ok {
				ct = newInjConvTally(*a.Injection)
				injConvs[a.Campaign] = ct
			}
			cfg.Obs.Convergence(ct.record(a.Workload, a.Lo, outs), tc)
		}
		return &ShardPayload{InjMeta: &meta, Outcomes: outs}, nil
	case KindBeam:
		if a.Beam == nil {
			return nil, fmt.Errorf("beam assignment without config")
		}
		rs.use(a.Campaign)
		r := rs.beam
		if r == nil {
			cc := *a.Beam
			cc.Obs = cfg.Obs
			r = beam.NewShardRunner(cc)
			r.Worker = cfg.Worker
			if cfg.Obs.On() {
				// The chains stream their estimates into a campaign-wide
				// registry; the observer's records carry them to the shipper.
				r.Conv = obs.NewConvRegistry(convRule(cc.TargetMargin, cc.Confidence))
			}
			rs.beam = r
		}
		r.Ctx = tc
		chain, meta, err := r.RunShard(spec, a.Lo)
		if err != nil {
			return nil, err
		}
		return &ShardPayload{BeamMeta: &meta, Chain: chain}, nil
	default:
		return nil, fmt.Errorf("unknown campaign kind %q", a.Kind)
	}
}

// renewLoop keeps the assignment's lease alive in the background and
// returns a stop function. Renewal failures are ignored: if the lease
// was requeued, the eventual Complete is a harmless duplicate.
func renewLoop(ctx context.Context, cfg WorkerConfig, a *Assignment) func() {
	ttl := time.Duration(a.LeaseMS) * time.Millisecond
	if ttl <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				_ = cfg.Source.Renew(cfg.Node, a.Campaign, a.Shard)
			}
		}
	}()
	return func() { close(stop) }
}
