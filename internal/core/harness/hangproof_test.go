package harness

import (
	"reflect"
	"testing"

	"armsefi/internal/core/fault"
	"armsefi/internal/soc"
)

// TestHangProofFixtures pins three hangs of the seed-2019 campaign: each
// ladder Result must equal plain replay, and the hang proof must fire
// exactly where the state provably recurs.
func TestHangProofFixtures(t *testing.T) {
	timerPeriod := uint64(soc.PresetModel().TimerPeriod)
	for _, tc := range []struct {
		workload  string
		f         fault.Fault
		class     fault.Class
		proved    bool
		projected bool // the period is no multiple of the timer's
	}{
		// A kernel loop after a corrupted instruction translation.
		{"crc32", fault.Fault{Comp: fault.CompITLB, Bit: 66, Cycle: 39924}, fault.ClassSysCrash, true, false},
		// A kernel exception loop with interrupts masked: the timer count
		// keeps running, so only the timer projection makes it recur
		// within the budget.
		{"fft", fault.Fault{Comp: fault.CompDTLB, Bit: 256, Cycle: 48390}, fault.ClassSysCrash, true, true},
		// The application spins while the kernel keeps ticking: jiffies and
		// the heartbeat grow every tick, so the state never recurs.
		{"qsort", fault.Fault{Comp: fault.CompRegFile, Bit: 1525, Cycle: 2587}, fault.ClassAppCrash, false, false},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			pair, err := ladderPair(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			wb, ref := pair[0], pair[1]
			cls, _, res, stats := wb.RunFaultLadder(tc.f, false)
			pcls, _, pres, _ := ref.RunFaultLadder(tc.f, false)
			if !reflect.DeepEqual(res, pres) || cls != pcls {
				t.Fatalf("ladder %v %+v != plain %v %+v", cls, res, pcls, pres)
			}
			if cls != tc.class || res.Outcome != soc.OutcomeTimeout {
				t.Fatalf("got %v/%v, want %v/timeout", cls, res.Outcome, tc.class)
			}
			if stats.HangProved != tc.proved {
				t.Fatalf("HangProved = %v, want %v (%+v)", stats.HangProved, tc.proved, stats)
			}
			if tc.projected && (stats.HangPeriod%timerPeriod == 0 || !wb.Machine.Timer.Pending()) {
				t.Fatalf("proof of period %d (timer pending %v) needed no timer projection",
					stats.HangPeriod, wb.Machine.Timer.Pending())
			}
		})
	}
}
