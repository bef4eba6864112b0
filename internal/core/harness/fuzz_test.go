package harness

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/soc"
)

// fuzzWorkloads are the workloads FuzzLadderMatchesPlain draws from;
// crc32 first, the hang fixtures' other workloads after it.
var fuzzWorkloads = []string{"crc32", "fft", "qsort"}

var fuzzBenches struct {
	once [3]sync.Once
	err  [3]error
	wb   [3][2]*Workbench // ladder, plain
}

// ladderPair builds a tiny-scale detailed-model workbench with the
// default cold ladder, plus a ladder-free sibling for plain replays.
func ladderPair(name string) ([2]*Workbench, error) {
	spec, ok := bench.ByName(name)
	if !ok {
		return [2]*Workbench{}, fmt.Errorf("workload %s missing", name)
	}
	wb, err := Build(soc.PresetModel(), soc.ModelDetailed, spec, bench.ScaleTiny)
	if err != nil {
		return [2]*Workbench{}, err
	}
	ref, err := wb.Clone()
	if err != nil {
		return [2]*Workbench{}, err
	}
	err = wb.BuildLadder(soc.DefaultCheckpointEvery, soc.DefaultMaxCheckpoints, false)
	return [2]*Workbench{wb, ref}, err
}

// FuzzLadderMatchesPlain fuzzes single faults (workload, component, bit,
// cycle) and requires the ladder path — rung fast-forward, golden
// convergence and the hang proof — to return exactly the class, strike
// context and Result of a plain replay from the post-boot snapshot. Any
// failure is a program bug: fix the program, never narrow the generator.
func FuzzLadderMatchesPlain(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(1179), uint64(45991)) // crc32 regfile: AppCrash hang
	f.Add(uint8(0), uint8(2), uint64(4097), uint64(20000)) // crc32 l1d
	f.Fuzz(func(t *testing.T, wl, comp uint8, bit, cycle uint64) {
		i := int(wl) % len(fuzzWorkloads)
		fuzzBenches.once[i].Do(func() {
			fuzzBenches.wb[i], fuzzBenches.err[i] = ladderPair(fuzzWorkloads[i])
		})
		if err := fuzzBenches.err[i]; err != nil {
			t.Fatal(err)
		}
		wb, ref := fuzzBenches.wb[i][0], fuzzBenches.wb[i][1]
		comps := fault.Components()
		c := comps[int(comp)%len(comps)]
		flt := fault.Fault{
			Comp:  c,
			Bit:   bit % fault.SizeBits(wb.Machine, c),
			Cycle: cycle % wb.Golden.Cycles,
		}
		cls, ctx, res, stats := wb.RunFaultLadder(flt, false)
		pcls, pctx, pres, _ := ref.RunFaultLadder(flt, false)
		if cls != pcls || ctx != pctx || !reflect.DeepEqual(res, pres) {
			t.Fatalf("%s %+v: ladder (%v, %+v, %+v) != plain (%v, %+v, %+v); ladder stats %+v",
				fuzzWorkloads[i], flt, cls, ctx, res, pcls, pctx, pres, stats)
		}
	})
}
