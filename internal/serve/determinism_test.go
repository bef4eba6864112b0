package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/soc"
)

// killSource wraps a Source and cancels a context after n completions —
// the in-process analogue of SIGKILLing a worker daemon mid-campaign
// (the CI smoke job does it to a real process; this pins the same
// contract at unit speed).
type killSource struct {
	Source
	remaining int
	kill      context.CancelFunc
}

func (k *killSource) Complete(node, campaign string, shard int, span int64, p *ShardPayload) error {
	err := k.Source.Complete(node, campaign, shard, span, p)
	k.remaining--
	if k.remaining == 0 {
		k.kill()
	}
	return err
}

// TestKillResumeDeterminism is the service's determinism pin: a campaign
// killed mid-run — with a torn shard-log tail, as a real crash leaves —
// and resumed by a fresh coordinator over the same store must produce
// Workloads bytes identical to an uninterrupted single-process run of
// the same Config and seed.
func TestKillResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real injection campaigns")
	}
	cfg := gefin.Config{
		Seed:               1234,
		FaultsPerComponent: 4,
		Components:         []fault.Component{fault.CompRegFile, fault.CompDTLB},
		Workers:            1,
	}
	spec, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("crc32 missing")
	}
	direct, err := gefin.Run(cfg, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c1, err := NewCoordinator(CoordConfig{Store: store, LeaseTTL: time.Hour, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	man, err := BuildManifest(KindInjection, &cfg, nil, []string{"crc32"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c1.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 4 {
		t.Fatalf("want 4 shards, got %d", len(man.Shards))
	}

	// Phase 1: a worker completes two shards, then the process "dies".
	ctx1, kill := context.WithCancel(context.Background())
	defer kill()
	done1, err := RunWorker(ctx1, WorkerConfig{
		Node:   "victim",
		Source: &killSource{Source: c1, remaining: 2, kill: kill},
	})
	if err != nil {
		t.Fatal(err)
	}
	if done1 != 2 {
		t.Fatalf("victim completed %d shards, want 2", done1)
	}
	// The crash also tore the log tail mid-append.
	appendRaw(t, store.logPath(id), `{"v":1,"type":"shard","sha`)

	// Phase 2: a fresh coordinator over the same store recovers the torn
	// tail and resumes. Its victim's leases are still live (TTL 1h), so
	// resume must come from the durable log, not lease bookkeeping.
	c2, err := NewCoordinator(CoordConfig{Store: store, LeaseTTL: time.Hour, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsDone != 2 {
		t.Fatalf("resumed with %d shards done, want 2", st.ShardsDone)
	}
	ctx2, cancel := context.WithCancel(context.Background())
	go func() {
		// Stop the resuming worker once the campaign completes.
		for {
			if s, err := c2.Status(id); err == nil && s.State == StateComplete {
				cancel()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	if _, err := RunWorker(ctx2, WorkerConfig{Node: "resumer", Source: c2, PollInterval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cancel()

	res, err := c2.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	assembled, ok := res.(*gefin.Result)
	if !ok {
		t.Fatalf("results type %T", res)
	}
	dj, _ := json.Marshal(direct.Workloads)
	aj, _ := json.Marshal(assembled.Workloads)
	if string(dj) != string(aj) {
		t.Fatalf("kill/resume diverged from uninterrupted run:\n direct  %s\n resumed %s", dj, aj)
	}
}

// TestDedupServiceDeterminism pins the deduplicator through the
// campaign service: a deduplicating remote run assembles to the same
// Workloads bytes as a plain (non-dedup) local run, and the wire
// outcomes reassemble the dedup split for the coordinator's summary.
func TestDedupServiceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real injection campaigns")
	}
	plain := gefin.Config{
		Seed:               5,
		FaultsPerComponent: 150,
		Components:         []fault.Component{fault.CompDTLB},
		Workers:            1,
	}
	spec, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("crc32 missing")
	}
	direct, err := gefin.Run(plain, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c, err := NewCoordinator(CoordConfig{Store: store, LeaseTTL: time.Hour, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := plain
	dcfg.Dedup = true
	// One full-plan shard: the shard-local partition then equals the
	// campaign partition, so the wire split carries every class.
	man, err := BuildManifest(KindInjection, &dcfg, nil, []string{"crc32"}, gefin.PlanLen(dcfg))
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for {
			if s, err := c.Status(id); err == nil && s.State == StateComplete {
				cancel()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	if _, err := RunWorker(ctx, WorkerConfig{Node: "n", Source: c, PollInterval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cancel()

	res, err := c.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	assembled := res.(*gefin.Result)
	dj, _ := json.Marshal(direct.Workloads)
	aj, _ := json.Marshal(assembled.Workloads)
	if string(dj) != string(aj) {
		t.Fatalf("service dedup run diverged from plain run:\n direct  %s\n service %s", dj, aj)
	}
	if assembled.Dedup == nil {
		t.Fatal("assembled result carries no DedupSummary")
	}
	if s := assembled.Dedup; s.Deduped == 0 || s.Deduped+s.Simulated != gefin.PlanLen(dcfg) {
		t.Fatalf("assembled dedup split %d/%d over plan %d", s.Deduped, s.Simulated, gefin.PlanLen(dcfg))
	}
}

// TestPruneDedupServiceSplits pins the coordinator's assembled prune and
// dedup splits to the in-process engine's: with the pre-filter and
// deduplication both on, a one-shard remote campaign (whose shard-local
// classes equal the campaign's) must report exactly the in-process
// predicted, deduplicated and simulated counts — simulated meaning
// neither predicted nor deduplicated on both paths.
func TestPruneDedupServiceSplits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real injection campaigns")
	}
	// A DTLB plan whose undecided remainder still collides into classes.
	cfg := gefin.Config{
		Seed:               7,
		FaultsPerComponent: 300,
		Components:         []fault.Component{fault.CompDTLB},
		Workers:            1,
		CheckpointEvery:    soc.DefaultCheckpointEvery,
		Prune:              true,
		Dedup:              true,
	}
	spec, _ := bench.ByName("crc32")
	local, err := gefin.Run(cfg, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if local.Prune.Predicted == 0 || local.Dedup.Deduped == 0 {
		t.Fatalf("plan exercises neither fast path fully: prune %+v dedup %+v", *local.Prune, *local.Dedup)
	}

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordConfig{Store: store, LeaseTTL: time.Hour, Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	man, err := BuildManifest(KindInjection, &cfg, nil, []string{"crc32"}, gefin.PlanLen(cfg))
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for {
			if s, err := c.Status(id); err == nil && s.State == StateComplete {
				cancel()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	if _, err := RunWorker(ctx, WorkerConfig{Node: "n", Source: c, PollInterval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	remote := res.(*gefin.Result)
	lj, _ := json.Marshal(local.Workloads)
	rj, _ := json.Marshal(remote.Workloads)
	if string(lj) != string(rj) {
		t.Fatalf("remote Workloads diverge from in-process:\n local  %s\n remote %s", lj, rj)
	}
	if got, want := *remote.Prune, *local.Prune; got.Predicted != want.Predicted || got.Simulated != want.Simulated ||
		!reflect.DeepEqual(got.ByMechanism, want.ByMechanism) {
		t.Fatalf("remote prune split %+v, in-process %+v", got, want)
	}
	if got, want := *remote.Dedup, *local.Dedup; got.Deduped != want.Deduped || got.Simulated != want.Simulated {
		t.Fatalf("remote dedup split %+v, in-process %+v", got, want)
	}
}

// TestBeamServiceDeterminism pins the beam half end to end through the
// coordinator: chain shards executed through the service assemble to the
// same Workloads bytes as beam.Run.
func TestBeamServiceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real beam campaigns")
	}
	cfg := beam.Config{Seed: 99, BeamHours: 1, StrikesPerComponent: 2, Workers: 1}
	spec, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("crc32 missing")
	}
	direct, err := beam.Run(cfg, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c, err := NewCoordinator(CoordConfig{Store: store, LeaseTTL: time.Hour, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	man, err := BuildManifest(KindBeam, nil, &cfg, []string{"crc32"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != beam.ShardsPerWorkload {
		t.Fatalf("want %d chain shards, got %d", beam.ShardsPerWorkload, len(man.Shards))
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for {
			if s, err := c.Status(id); err == nil && s.State == StateComplete {
				cancel()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	if _, err := RunWorker(ctx, WorkerConfig{Node: "n", Source: c, PollInterval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cancel()

	res, err := c.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	assembled := res.(*beam.Result)
	dj, _ := json.Marshal(direct.Workloads)
	aj, _ := json.Marshal(assembled.Workloads)
	if string(dj) != string(aj) {
		t.Fatalf("service beam run diverged from direct run:\n direct  %s\n service %s", dj, aj)
	}
}
