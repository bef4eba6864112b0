// Command beamsim exposes workloads to the simulated neutron beam (the
// LANSCE stand-in) and prints the Figure 3 beam FIT rates, or measures the
// raw per-bit FIT with the Section VI L1 probe.
//
// Usage:
//
//	beamsim [-workloads crc32,qsort] [-hours 4] [-scale tiny] [-seed 1] [-workers N]
//	        [-trace trace.jsonl] [-prov] [-metrics-addr 127.0.0.1:9100]
//	        [-checkpoint-every 150000] [-max-checkpoints 64]
//	        [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	        [-remote http://host:8440]
//	        [-target-margin 0.04] [-confidence 0.99] [-verify]
//	beamsim -fitraw [-hours 20]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/beam"
	"armsefi/internal/core/fit"
	"armsefi/internal/obs"
	"armsefi/internal/report"
	"armsefi/internal/serve"
	"armsefi/internal/soc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "beamsim:", err)
		os.Exit(1)
	}
}

// runRemote submits the beam campaign to a campaignd coordinator, waits
// for completion, and fetches the assembled Result (bit-identical to a
// local run by the service's determinism contract).
func runRemote(base string, cfg beam.Config, specs []bench.Spec, quiet bool) (*beam.Result, error) {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	client := &serve.Client{Base: base}
	id, err := client.Submit(serve.SubmitRequest{
		Kind:      serve.KindBeam,
		Beam:      &cfg,
		Workloads: names,
	})
	if err != nil {
		return nil, err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "submitted campaign %s to %s\n", id, base)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	for {
		st, err := client.Status(id)
		if err != nil {
			return nil, err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "\r%4d/%d chain shards | %s     ", st.ShardsDone, st.ShardsTotal, st.State)
		}
		if st.State == serve.StateComplete {
			if !quiet {
				fmt.Fprintln(os.Stderr)
			}
			break
		}
		if st.State == serve.StateCancelled {
			if !quiet {
				fmt.Fprintln(os.Stderr)
			}
			return nil, fmt.Errorf("campaign %s was cancelled", id)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("interrupted waiting for campaign %s (it keeps running; re-check with -remote later)", id)
		case <-time.After(500 * time.Millisecond):
		}
	}
	return client.BeamResults(id)
}

func run() error {
	var (
		workloads = flag.String("workloads", "", "comma-separated workload names (default: all 13)")
		hours     = flag.Float64("hours", 4, "effective beam hours per workload (paper: ~20)")
		scaleFlag = flag.String("scale", "tiny", "input scale (tiny|small|paper)")
		seed      = flag.Int64("seed", 1, "Monte-Carlo seed")
		workers   = flag.Int("workers", 0, "parallel workers; 0 = GOMAXPROCS, 1 = sequential (same result either way)")
		fitRaw    = flag.Bool("fitraw", false, "run the L1 FIT-raw probe measurement instead")
		jsonOut   = flag.String("json", "", "also write the raw campaign result as JSON to this file")
		quiet     = flag.Bool("quiet", false, "suppress progress output")
		tracePath = flag.String("trace", "", "stream a per-strike JSONL lifecycle trace to this file")
		prov      = flag.Bool("prov", false,
			"attach the propagation-provenance probe: trace records carry a mechanism verdict and lifecycle event chain (results are byte-identical either way)")
		metrics = flag.String("metrics-addr", "", "serve live metrics and pprof on HOST:PORT")
		ckEvery = flag.Uint64("checkpoint-every", soc.DefaultCheckpointEvery,
			"golden-run checkpoint-ladder rung spacing in cycles; the ladder fast-forwards steady-state and reboot runs; 0 disables it (results are bit-identical either way)")
		ckMax = flag.Int("max-checkpoints", soc.DefaultMaxCheckpoints,
			"cap on checkpoint-ladder rungs per workload (spacing grows to fit)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at campaign end to this file")
		remote  = flag.String("remote", "",
			"submit the campaign to a campaignd coordinator at this URL instead of running locally, wait for completion, and report its results")
		targetMargin = flag.Float64("target-margin", 0,
			"sequential early stopping: cut each component's strike chain at the first check boundary where every class estimate reaches this confidence-interval half-width (0 disables; surviving strikes are re-weighted so FIT rates stay unbiased)")
		confidence = flag.Float64("confidence", 0,
			"confidence level for -target-margin and reported margins (0 = 0.99, the paper's level)")
		verify = flag.Bool("verify", false,
			"cross-check the stopping fast path: execute every strike while computing the same sequential cuts and emitting the truncated re-weighted result (CI cross-checks it byte-for-byte against a genuinely stopped run)")
	)
	flag.Parse()

	scale := bench.ScaleTiny
	switch *scaleFlag {
	case "tiny":
	case "small":
		scale = bench.ScaleSmall
	case "paper":
		scale = bench.ScalePaper
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}
	ocli, err := obs.SetupCLI(*tracePath, *metrics)
	if err != nil {
		return err
	}
	defer ocli.Close()
	stopProfiles, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	cfg := beam.Config{
		Scale: scale, Seed: *seed, BeamHours: *hours, Workers: *workers,
		CheckpointEvery: *ckEvery, MaxCheckpoints: *ckMax, Obs: ocli.Obs,
		Provenance:   *prov,
		TargetMargin: *targetMargin, Confidence: *confidence, Verify: *verify,
	}
	var progress beam.Progress
	if !*quiet {
		// One aggregated campaign line: per-workload `\r` lines would
		// interleave across concurrent workloads. Events are serialised by
		// the engine, so no lock is needed here.
		progress = func(ev beam.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "\r%6d/%d strikes | %d workers | %6.1f strikes/s | ETA %-12v",
				ev.CampaignDone, ev.CampaignTotal, ev.Workers, ev.Rate, ev.ETA.Truncate(time.Second))
			if ev.CampaignDone == ev.CampaignTotal {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if *fitRaw {
		measured, res, err := beam.MeasureFITRaw(cfg, progress)
		if err != nil {
			return err
		}
		if err := stopProfiles(); err != nil {
			return err
		}
		fmt.Printf("FIT-raw probe: %d mismatches over fluence %.3g n/cm^2\n",
			res.TotalMismatches, res.Fluence)
		fmt.Printf("measured FIT_raw: %.3g FIT/bit (paper: %.3g; configured cross-section implies %.3g)\n",
			measured, fit.DefaultFITRawPerBit, beam.DefaultBitXS*beam.FluxNYC*beam.FITHours)
		return nil
	}

	var specs []bench.Spec
	if *workloads == "" {
		specs = bench.All()
	} else {
		for _, name := range strings.Split(*workloads, ",") {
			s, ok := bench.ByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			specs = append(specs, s)
		}
	}
	var res *beam.Result
	if *remote != "" {
		res, err = runRemote(*remote, cfg, specs, *quiet)
	} else {
		res, err = beam.Run(cfg, specs, progress)
	}
	if err != nil {
		return err
	}
	if err := stopProfiles(); err != nil { // profile the campaign, not reporting
		return err
	}
	if err := ocli.Close(); err != nil { // flush the trace before reporting
		return err
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	fmt.Println(report.Fig3(res))
	if s := res.Stop; s != nil {
		fmt.Println(report.StopBeam(s))
	}
	return nil
}
