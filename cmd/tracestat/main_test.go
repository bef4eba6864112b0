package main

import (
	"testing"

	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/obs"
)

// TestVerifyInjectionPruneSplit checks the trace-vs-result cross-check of
// a pruned campaign's predicted/simulated split: a plain pruned run must
// reproduce it from the trace's predicted records, while a Verify run
// simulates every slot, so its trace holds none and the check is skipped.
// The Result alone says which: service-assembled summaries carry no
// other trace of Verify.
func TestVerifyInjectionPruneSplit(t *testing.T) {
	rec := func(predicted bool) obs.Record {
		return obs.Record{Kind: obs.KindInjection, Workload: "crc32", Comp: fault.CompL1D,
			Class: fault.ClassMasked, Predicted: predicted, Mechanism: fault.MechNeverRead.String()}
	}
	result := func(verify bool) *gefin.Result {
		return &gefin.Result{
			Config: gefin.Config{Prune: true, Verify: verify},
			Workloads: []gefin.WorkloadResult{{Workload: "crc32", Components: []gefin.ComponentResult{{
				Comp: fault.CompL1D, N: 3, Counts: map[fault.Class]int{fault.ClassMasked: 3},
			}}}},
			Prune: &gefin.PruneSummary{Predicted: 2, Simulated: 1},
		}
	}
	for _, tc := range []struct {
		name     string
		records  []obs.Record
		verify   bool
		failures int
	}{
		{"pruned", []obs.Record{rec(true), rec(true), rec(false)}, false, 0},
		{"pruned, split disagrees", []obs.Record{rec(true), rec(false), rec(false)}, false, 1},
		{"verify", []obs.Record{rec(false), rec(false), rec(false)}, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := verifyInjectionResult(obs.Summarize(tc.records), result(tc.verify), tc.name); got != tc.failures {
				t.Fatalf("%d failures, want %d", got, tc.failures)
			}
		})
	}
}
