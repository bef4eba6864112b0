package serve

import (
	"context"
	"encoding/json"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
)

// TestWorkerHoldsOneRunner pins the worker loop's memory bound: after
// shards of two campaigns the loop holds only the later campaign's
// runner, and a requeued shard of the earlier campaign — prepared again
// from scratch — still assembles byte-identically to an in-process run.
func TestWorkerHoldsOneRunner(t *testing.T) {
	cfgA := gefin.Config{
		Seed:               3,
		FaultsPerComponent: 6,
		Components:         []fault.Component{fault.CompRegFile, fault.CompL1D},
		Workers:            1,
	}
	cfgB := cfgA
	cfgB.Seed = 4
	spec, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("crc32 missing")
	}
	n := gefin.PlanLen(cfgA)

	var rs runners
	convs := make(map[string]*injConvTally)
	run := func(campaign string, cfg *gefin.Config, lo, hi int) *ShardPayload {
		t.Helper()
		a := &Assignment{Campaign: campaign, Kind: KindInjection, Injection: cfg, Workload: spec.Name, Lo: lo, Hi: hi}
		p, err := executeShard(context.Background(), WorkerConfig{Node: "n"}, a, &rs, convs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	first := run("a", &cfgA, 0, n/2)
	run("b", &cfgB, 0, n)
	if rs.campaign != "b" || rs.inj == nil || rs.beam != nil {
		t.Fatalf("after two campaigns the loop holds campaign %q (injection runner %v, beam runner %v)",
			rs.campaign, rs.inj != nil, rs.beam != nil)
	}
	requeued := run("a", &cfgA, n/2, n)
	if rs.campaign != "a" {
		t.Fatalf("requeued shard ran on campaign %q's runner", rs.campaign)
	}

	outs := append(append([]gefin.ShardOutcome(nil), first.Outcomes...), requeued.Outcomes...)
	assembled, err := gefin.AssembleWorkload(cfgA, spec.Name, *first.InjMeta, outs)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := gefin.RunWorkload(cfgA, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	dj, _ := json.Marshal(direct)
	aj, _ := json.Marshal(assembled)
	if string(dj) != string(aj) {
		t.Fatalf("requeued shard assembled differently:\n direct    %s\n assembled %s", dj, aj)
	}
}
