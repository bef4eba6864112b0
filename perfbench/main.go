// Command perfbench is the end-to-end campaign benchmark: it drives the
// fault-injection engine, the campaign service and the beam simulator
// as closed loops from outside the program, checks every campaign
// Result against recorded digests, and prints one JSON line of metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload inject-accel --seed 2019 --seconds 35 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// re-drives each campaign layer by layer through the layers' public
// functions and reports per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// DefaultSeed is the workload seed whose campaign digests are recorded
// in digests.json.
const DefaultSeed = 2019

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the parsed command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nproc    int
	scratch  string // directory for temporary stores, inside the checkout
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: "+workloadNames()+", or all to run each in its own process")
		seed     = flag.Int64("seed", DefaultSeed, "workload seed; campaign seeds derive from it")
		seconds  = flag.Float64("seconds", 35, "measured duration of the closed loop")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		record   = flag.Int("record-digests", 0, "record plain-engine digests of the first N campaigns of -seed instead of benchmarking")
		out      = flag.String("out", "", "with -record-digests: write the digest table to this file")
		faults   = flag.Int("faults", FaultsPerComponent, "injection faults per component (sizing studies; digests are recorded only for the default)")
		strikes  = flag.Int("strikes", StrikesPerComponent, "beam strikes per component chain (sizing studies; digests are recorded only for the default)")
	)
	flag.Parse()
	FaultsPerComponent, StrikesPerComponent = *faults, *strikes
	opts := options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		nproc:    runtime.NumCPU(),
		scratch:  ".bench_build",
	}
	if *record > 0 {
		if err := recordDigests(opts, *record, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if opts.workload == "all" {
		if err := runAll(opts); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[opts.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", opts.workload, workloadNames())
		return 2
	}
	table, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v nproc=%d %s\n",
		opts.workload, opts.seed, opts.seconds, opts.trace, opts.nproc, runtime.Version())
	b := &session{opts: opts, table: table}
	if opts.trace {
		err = w.traced(b)
	} else {
		err = w.untraced(b)
	}
	if err != nil {
		// A run that cannot complete its loop reports no result line.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := b.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
