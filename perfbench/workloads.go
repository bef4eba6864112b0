package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/core/sched"
	"armsefi/internal/obs"
	"armsefi/internal/serve"
)

const (
	// WorkerPoll is the service workers' idle claim poll, campaignd's
	// default.
	WorkerPoll = 200 * time.Millisecond
	// ClientPoll is how often the submitting client polls campaign
	// status.
	ClientPoll = 20 * time.Millisecond
	// CampaignTimeout bounds one service campaign; a stuck campaign fails
	// rather than hanging the run.
	CampaignTimeout = 150 * time.Second
	// ServiceSession is how many timed campaigns one service instance
	// runs before it is restarted, untimed. serve.RunWorker keeps every
	// campaign's ShardRunner, and with it each workload's workbench,
	// ladder and liveness log, for the life of the worker loop: about
	// 250 MB per campaign here. Without restarts a run's memory would grow
	// with its campaign count past the host's; with them peak_rss_mb still
	// carries a session's retained runners.
	ServiceSession = 4
)

// runInject runs one in-process accelerated injection campaign of the
// given size and checks it.
func (b *session) runInject(seed int64, faults int) (*gefin.Result, verdict) {
	res, err := gefin.Run(injectConfig(seed, b.opts.nproc, faults), specs(injectWorkloads), nil)
	if err != nil {
		return nil, verdict{err: err}
	}
	d := b.table.inject(faults)
	structural := d.checkInject(res)
	if structural == nil && res.Prune != nil && res.Dedup != nil {
		// In-process, Prune.Simulated counts exactly the simulator runs.
		plan := len(injectWorkloads) * fault.NumComponents * faults
		if got := res.Prune.Predicted + res.Dedup.Deduped + res.Prune.Simulated; got != plan {
			structural = fmt.Errorf("predicted %d + deduped %d + simulated %d = %d, plan %d",
				res.Prune.Predicted, res.Dedup.Deduped, res.Prune.Simulated, got, plan)
		}
	}
	return res, d.check(b.opts.seed, seed, digestOf(res.Workloads), structural)
}

// injectFaults is the size of a timed campaign, or of a warm-up one.
func injectFaults(warmup bool) int {
	if warmup {
		return WarmupFaults
	}
	return FaultsPerComponent
}

func beamStrikesPer(warmup bool) int {
	if warmup {
		return WarmupStrikes
	}
	return StrikesPerComponent
}

func injectAccel(b *session) error {
	return b.closedLoop(loopHooks{
		kind: "inject-accel",
		campaign: func(seed int64, warmup bool) (int, verdict) {
			res, v := b.runInject(seed, injectFaults(warmup))
			if !v.returned {
				return 0, v
			}
			return simulatedRuns(res), v
		},
	})
}

// runBeam runs one in-process beam campaign of the given size and checks
// it.
func (b *session) runBeam(seed int64, strikes int) (*beam.Result, verdict) {
	res, err := beam.Run(beamConfig(seed, b.opts.nproc, strikes), specs(beamWorkloads), nil)
	if err != nil {
		return nil, verdict{err: err}
	}
	d := b.table.beam(strikes)
	return res, d.check(b.opts.seed, seed, digestOf(res.Workloads), d.checkBeam(res))
}

func beamLive(b *session) error {
	return b.closedLoop(loopHooks{
		kind: "beam-live",
		campaign: func(seed int64, warmup bool) (int, verdict) {
			res, v := b.runBeam(seed, beamStrikesPer(warmup))
			if !v.returned {
				return 0, v
			}
			return beamStrikes(res), v
		},
	})
}

func injectService(b *session) error {
	var svc *service
	return b.closedLoop(loopHooks{
		kind: "inject-service",
		setup: func(int) error {
			var err error
			svc, err = startService(b.opts, nil, nil)
			return err
		},
		teardown: func() {
			if err := svc.stop(); err != nil {
				b.fail("service shutdown: %v", err)
			}
		},
		recycleEvery: ServiceSession,
		campaign: func(seed int64, warmup bool) (int, verdict) {
			res, v := svc.runInject(b, seed, injectFaults(warmup), nil)
			if !v.returned {
				return 0, v
			}
			return simulatedRuns(res), v
		},
	})
}

// service is an in-process campaign service: a coordinator over a
// temporary store, its HTTP API on loopback, nproc worker loops, and one
// client.
type service struct {
	dir    string
	client *serve.Client
	srv    *http.Server
	served chan error
	cancel context.CancelFunc
	// dead is cancelled with the cause when a worker loop fails, so a
	// waiting client gives up instead of hanging.
	dead    context.Context
	workers sync.WaitGroup
	mu      sync.Mutex
	errs    []error
	stopped sync.Once
	stopErr error
}

// startService brings the service up. wrap, when set, wraps each worker
// loop's Source (loop index given); wobs, when set, is the workers'
// observer.
func startService(opts options, wrap func(loop int, s serve.Source) serve.Source, wobs *obs.Observer) (*service, error) {
	if err := os.MkdirAll(opts.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.scratch, "store-")
	if err != nil {
		return nil, err
	}
	store, err := serve.OpenStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	coord, err := serve.NewCoordinator(serve.CoordConfig{Store: store})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{
		dir:    dir,
		client: &serve.Client{Base: "http://" + lis.Addr().String()},
		srv:    &http.Server{Handler: serve.Handler(coord, nil)},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(lis) }()
	ctx, cancel := context.WithCancel(context.Background())
	dead, kill := context.WithCancelCause(context.Background())
	s.cancel = func() { cancel(); kill(context.Canceled) }
	s.dead = dead
	pool := sched.NewPool(opts.nproc)
	for i := 0; i < opts.nproc; i++ {
		var src serve.Source = coord
		if wrap != nil {
			src = wrap(i, coord)
		}
		s.workers.Add(1)
		go func(i int, src serve.Source) {
			defer s.workers.Done()
			_, err := serve.RunWorker(ctx, serve.WorkerConfig{
				Node:         "perfbench",
				Source:       src,
				Pool:         pool,
				Worker:       i,
				Obs:          wobs,
				PollInterval: WorkerPoll,
			})
			if err != nil {
				s.mu.Lock()
				s.errs = append(s.errs, err)
				s.mu.Unlock()
				kill(err)
			}
		}(i, src)
	}
	return s, nil
}

// stop cancels the worker loops, waits for them and the HTTP server to
// end, and removes the store. Later calls, and calls on nil, return the
// first call's result.
func (s *service) stop() error {
	if s == nil {
		return nil
	}
	s.stopped.Do(func() {
		s.cancel()
		s.workers.Wait()
		shut, done := context.WithTimeout(context.Background(), 5*time.Second)
		defer done()
		err := s.srv.Shutdown(shut)
		if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.stopErr = errors.Join(append(s.errs, err)...)
	})
	return s.stopErr
}

// clientSpans are the client-side call timings of one service campaign.
type clientSpans struct {
	id                  string
	submit, wait, fetch span
}

// runInject submits one injection campaign of the given size through the
// client, waits for it, fetches its Result and checks it. spans, when
// set, receives the client call timings.
func (s *service) runInject(b *session, seed int64, faults int, spans *clientSpans) (*gefin.Result, verdict) {
	cfg := injectConfig(seed, b.opts.nproc, faults)
	ctx, done := context.WithTimeout(s.dead, CampaignTimeout)
	defer done()
	var cs clientSpans
	cs.submit.start = time.Now()
	id, err := s.client.Submit(serve.SubmitRequest{Kind: serve.KindInjection, Injection: &cfg, Workloads: injectWorkloads})
	cs.submit.end = time.Now()
	if err != nil {
		return nil, verdict{err: err}
	}
	cs.id = id
	cs.wait.start = cs.submit.end
	st, err := s.client.WaitComplete(ctx, id, ClientPoll)
	cs.wait.end = time.Now()
	if err != nil {
		return nil, verdict{err: fmt.Errorf("campaign %s: %w (%v)", id, err, context.Cause(ctx))}
	}
	if st.State != serve.StateComplete {
		return nil, verdict{err: fmt.Errorf("campaign %s ended %s", id, st.State)}
	}
	cs.fetch.start = cs.wait.end
	res, err := s.client.InjectionResults(id)
	cs.fetch.end = time.Now()
	if err != nil {
		return nil, verdict{err: err}
	}
	if spans != nil {
		*spans = cs
	}
	d := b.table.inject(faults)
	return res, d.check(b.opts.seed, seed, digestOf(res.Workloads), d.checkInject(res))
}
