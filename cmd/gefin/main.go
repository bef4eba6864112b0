// Command gefin runs microarchitectural statistical fault-injection
// campaigns (the paper's GeFIN-over-gem5 methodology) and prints the
// Figure 4 classification, the Figure 5 FIT conversion, and the Table IV
// error margins.
//
// Usage:
//
//	gefin [-workloads crc32,qsort] [-faults 1000] [-scale tiny]
//	      [-seed 1] [-workers N] [-warm] [-tlb-full] [-model detailed] [-quiet]
//	      [-components l1d,dtlb] [-trace trace.jsonl] [-prov]
//	      [-metrics-addr 127.0.0.1:9100]
//	      [-checkpoint-every 150000] [-max-checkpoints 64]
//	      [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	      [-prune] [-dedup] [-exhaustive] [-verify]
//	      [-remote http://host:8440]
//	      [-target-margin 0.04] [-confidence 0.99]
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
	"armsefi/internal/core/ace"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/fit"
	"armsefi/internal/core/gefin"
	"armsefi/internal/obs"
	"armsefi/internal/report"
	"armsefi/internal/serve"
	"armsefi/internal/soc"
)

// writeJSON exports a campaign result when a path is given.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gefin:", err)
		os.Exit(1)
	}
}

func selectWorkloads(list string) ([]bench.Spec, error) {
	if list == "" {
		return bench.All(), nil
	}
	var specs []bench.Spec
	for _, name := range strings.Split(list, ",") {
		s, ok := bench.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// runRemote submits the campaign to a campaignd coordinator, waits for
// it to complete, and fetches the assembled Result. By the service's
// determinism contract the Workloads are bit-identical to a local run of
// the same Config and seed, so the reporting path below is unchanged.
func runRemote(base string, cfg gefin.Config, specs []bench.Spec, quiet bool) (*gefin.Result, error) {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	client := &serve.Client{Base: base}
	id, err := client.Submit(serve.SubmitRequest{
		Kind:      serve.KindInjection,
		Injection: &cfg,
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
			fmt.Fprintf(os.Stderr, "\r%7d/%d injections | %d/%d shards | %s     ",
				st.ItemsDone, st.ItemsTotal, st.ShardsDone, st.ShardsTotal, st.State)
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
	return client.InjectionResults(id)
}

func run() error {
	var (
		workloads = flag.String("workloads", "", "comma-separated workload names (default: all 13)")
		faults    = flag.Int("faults", 1000, "faults per component (paper: 1000)")
		scaleFlag = flag.String("scale", "tiny", "input scale (tiny|small|paper)")
		seed      = flag.Int64("seed", 1, "campaign seed")
		workers   = flag.Int("workers", 0, "parallel workers; 0 = GOMAXPROCS, 1 = sequential (same result either way)")
		warm      = flag.Bool("warm", false, "ablation: start injection runs with warm caches")
		tlbFull   = flag.Bool("tlb-full", false, "ablation: inject whole TLB entries incl. virtual tags")
		modelFlag = flag.String("model", "detailed", "CPU model (atomic|detailed)")
		fitRaw    = flag.Float64("fitraw", fit.DefaultFITRawPerBit, "raw FIT per bit for the FIT conversion")
		aceMode   = flag.Bool("ace", false, "also run ACE lifetime analysis and compare AVFs")
		jsonOut   = flag.String("json", "", "also write the raw campaign result as JSON to this file")
		quiet     = flag.Bool("quiet", false, "suppress progress output")
		tracePath = flag.String("trace", "", "stream a per-injection JSONL lifecycle trace to this file")
		prov      = flag.Bool("prov", false,
			"attach the propagation-provenance probe: trace records carry a mechanism verdict and lifecycle event chain (results are byte-identical either way)")
		metrics = flag.String("metrics-addr", "", "serve live metrics and pprof on HOST:PORT")
		ckEvery = flag.Uint64("checkpoint-every", soc.DefaultCheckpointEvery,
			"golden-run checkpoint-ladder rung spacing in cycles; 0 disables the ladder (results are bit-identical either way)")
		ckMax = flag.Int("max-checkpoints", soc.DefaultMaxCheckpoints,
			"cap on checkpoint-ladder rungs per workload (spacing grows to fit)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at campaign end to this file")
		prune   = flag.Bool("prune", false,
			"pre-filter the fault plan against a liveness replay and skip provably-masked injections (results are byte-identical either way)")
		dedup = flag.Bool("dedup", false,
			"collapse planned injections into equivalence classes (same fault site, same quiescent window) and simulate one representative per class (results are byte-identical either way)")
		exhaustive = flag.Bool("exhaustive", false,
			"enumerate every (fault site x quiescent window) of the selected components instead of sampling, for a population-exact AVF (local only; use -components to pick liveness-covered targets)")
		components = flag.String("components", "",
			"comma-separated component targets (regfile,l1i,l1d,l2,itlb,dtlb; default: all six)")
		remote = flag.String("remote", "",
			"submit the campaign to a campaignd coordinator at this URL instead of running locally, wait for completion, and report its results")
		targetMargin = flag.Float64("target-margin", 0,
			"sequential early stopping: truncate each component's plan at the first check boundary where every class estimate reaches this confidence-interval half-width (0 disables; the stopped Result is byte-identical to the same plan-order prefix of a full run)")
		confidence = flag.Float64("confidence", 0,
			"confidence level for -target-margin and reported margins (0 = 0.99, the paper's level)")
		verify = flag.Bool("verify", false,
			"cross-check every enabled fast path against the plain reference: predicted (-prune) and deduplicated (-dedup) injections also simulate and are compared, -target-margin executes the full plan while emitting the same truncated aggregation, and every ladder convergence check also compares full DRAM; any disagreement fails the campaign (slow; no speedup)")
	)
	flag.Parse()

	specs, err := selectWorkloads(*workloads)
	if err != nil {
		return err
	}
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
	model := soc.ModelDetailed
	if *modelFlag == "atomic" {
		model = soc.ModelAtomic
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
	var comps []fault.Component
	if *components != "" {
		for _, name := range strings.Split(*components, ",") {
			c, ok := fault.ComponentByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown component %q", name)
			}
			comps = append(comps, c)
		}
	}
	cfg := gefin.Config{
		Model:              model,
		Scale:              scale,
		FaultsPerComponent: *faults,
		Components:         comps,
		Seed:               *seed,
		Workers:            *workers,
		WarmCaches:         *warm,
		TLBFullEntry:       *tlbFull,
		CheckpointEvery:    *ckEvery,
		MaxCheckpoints:     *ckMax,
		Obs:                ocli.Obs,
		Provenance:         *prov,
		Prune:              *prune,
		Dedup:              *dedup,
		Exhaustive:         *exhaustive,
		TargetMargin:       *targetMargin,
		Confidence:         *confidence,
		Verify:             *verify,
	}
	var progress gefin.Progress
	if !*quiet {
		// Workloads run concurrently, so a per-workload `\r` line would
		// interleave; print one aggregated campaign line instead. The
		// engine serialises progress events, so the closure needs no lock.
		progress = func(ev gefin.ProgressEvent) {
			if ev.CampaignDone%100 != 0 && ev.CampaignDone != ev.CampaignTotal {
				return
			}
			fmt.Fprintf(os.Stderr, "\r%7d/%d injections | %d workers | %7.1f inj/s | ETA %-12v",
				ev.CampaignDone, ev.CampaignTotal, ev.Workers, ev.Rate, ev.ETA.Truncate(time.Second))
			if ev.CampaignDone == ev.CampaignTotal {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	var res *gefin.Result
	if *remote != "" {
		if *exhaustive {
			return fmt.Errorf("-exhaustive runs locally only: the sweep plan is enumerated from each workload's liveness replay, so the campaign service cannot cut shard ranges at submission time")
		}
		res, err = runRemote(*remote, cfg, specs, *quiet)
	} else {
		res, err = gefin.Run(cfg, specs, progress)
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
	if err := writeJSON(*jsonOut, res); err != nil {
		return err
	}
	fmt.Println(report.Fig4(res))
	if s := res.Prune; s != nil {
		fmt.Println(report.PruneSplit(s))
	}
	if s := res.Dedup; s != nil {
		fmt.Println(report.DedupSplit(s))
	}
	if s := res.Sweep; s != nil {
		fmt.Println(report.SweepTable(s))
	}
	if s := res.Stop; s != nil {
		fmt.Println(report.StopInjection(s))
	}
	injs := make([]fit.Injection, 0, len(res.Workloads))
	for i := range res.Workloads {
		injs = append(injs, fit.FromInjection(&res.Workloads[i], *fitRaw))
	}
	fmt.Println(report.Fig5(injs))
	fmt.Println(report.TableIV(res))
	fmt.Println(report.StrikeContext(res))
	if *aceMode {
		for i := range res.Workloads {
			w := &res.Workloads[i]
			spec, _ := bench.ByName(w.Workload)
			aceRes, err := ace.Run(ace.Config{Scale: scale, Model: model, Obs: ocli.Obs}, spec)
			if err != nil {
				return err
			}
			var rows []report.ACERow
			for _, est := range aceRes.Components {
				if inj, ok := w.Component(est.Comp); ok {
					rows = append(rows, report.ACERow{
						Comp:         est.Comp,
						ACEAVF:       est.AVF,
						InjectionAVF: inj.AVF(),
						Margin:       inj.ErrorMargin(),
					})
				}
			}
			fmt.Println(report.ACEComparison(w.Workload, rows))
		}
	}
	return nil
}
