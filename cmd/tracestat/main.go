// Command tracestat recomputes campaign statistics from JSONL lifecycle
// traces (written by gefin/beamsim/fitcompare via -trace, federated by
// campaignd, or fetched from a coordinator) and optionally cross-checks
// them against the engine's own exported Result, exiting nonzero on any
// disagreement. This closes the observability loop: the trace is an
// independent record of every injection and strike, so exact agreement
// with the aggregate Result certifies both — including a multi-node
// campaign's merged fleet trace against its distributed Result.
//
// Usage:
//
//	tracestat trace.jsonl
//	tracestat node-a.jsonl node-b.jsonl          # merge several nodes' traces
//	tracestat -against gefin-result.json trace.jsonl
//	tracestat -against-beam beam-result.json trace.jsonl
//	tracestat -require-prov -against gefin-result.json trace.jsonl
//	tracestat -remote http://host:8440 -campaign ID
//
// With -remote and -campaign, the campaign's merged fleet trace and its
// assembled Result are both fetched from the coordinator and verified
// against each other (exact counts; bit-identical beam event sums).
//
// When the trace carries propagation provenance, the mechanism verdicts
// are verified to partition the outcome classes exactly (always; the
// -require-prov flag additionally fails traces without provenance).
// Pruned campaigns (gefin -prune) are accepted: their predicted records
// carry masking-mechanism verdicts even without -prov, are verified to
// be consistent (masked class, masking mechanism, bounded by the masked
// outcome count), and the trace's predicted/simulated split is
// cross-checked against the assembled Result's prune summary.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/obs"
	"armsefi/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		against     = flag.String("against", "", "verify the trace against a gefin campaign Result JSON")
		againstBeam = flag.String("against-beam", "", "verify the trace against a beam campaign Result JSON")
		remote      = flag.String("remote", "", "coordinator URL: fetch the campaign's merged fleet trace and Result")
		campaignID  = flag.String("campaign", "", "campaign id on the remote coordinator")
		requireProv = flag.Bool("require-prov", false,
			"fail unless every record carries a provenance mechanism verdict")
		quiet = flag.Bool("quiet", false, "suppress the summary tables; print verification results only")
	)
	flag.Parse()
	if (*remote == "") != (*campaignID == "") {
		return fmt.Errorf("-remote and -campaign go together")
	}
	if flag.NArg() == 0 && *remote == "" {
		return fmt.Errorf("usage: tracestat [-against result.json | -against-beam result.json] trace.jsonl...\n" +
			"       tracestat -remote http://host:8440 -campaign ID")
	}

	var readers []io.Reader
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for _, path := range flag.Args() {
		if path == "-" {
			readers = append(readers, os.Stdin)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		closers = append(closers, f)
		readers = append(readers, f)
	}

	var client *serve.Client
	if *remote != "" {
		client = &serve.Client{Base: *remote}
		trace, err := client.Trace(*campaignID)
		if err != nil {
			return err
		}
		readers = append(readers, bytes.NewReader(trace))
	}

	sum, err := obs.ReadSummary(io.MultiReader(readers...))
	if err != nil {
		return err
	}
	if !*quiet {
		printSummary(sum)
	}
	failures := verifyProvenance(sum, *requireProv)
	if client != nil {
		failures += verifyRemote(sum, client, *campaignID)
	}
	if *against != "" {
		failures += verifyInjection(sum, *against)
	}
	if *againstBeam != "" {
		failures += verifyBeam(sum, *againstBeam)
	}
	if failures > 0 {
		return fmt.Errorf("%d verification failure(s)", failures)
	}
	return nil
}

// verifyRemote fetches the campaign's assembled Result from the
// coordinator and cross-checks the merged trace against it, picking the
// verifier by campaign kind.
func verifyRemote(s *obs.Summary, client *serve.Client, id string) int {
	st, err := client.Status(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		return 1
	}
	raw, err := client.RawResults(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		return 1
	}
	label := fmt.Sprintf("remote campaign %s", id)
	switch st.Kind {
	case serve.KindInjection:
		var res gefin.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			fmt.Fprintln(os.Stderr, "tracestat:", err)
			return 1
		}
		return verifyInjectionResult(s, &res, label)
	case serve.KindBeam:
		var res beam.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			fmt.Fprintln(os.Stderr, "tracestat:", err)
			return 1
		}
		return verifyBeamResult(s, &res, label)
	default:
		fmt.Printf("MISMATCH %s: unknown campaign kind %q\n", id, st.Kind)
		return 1
	}
}

// verifyProvenance cross-checks the mechanism verdicts against the outcome
// classes: for every workload x component carrying provenance, the verdicts
// must cover every record (all-or-none per component), each verdict must be
// consistent with its record's class, and the mechanism tallies must
// partition the class counts exactly — the masked mechanisms sum to the
// Masked count, propagated-sdc equals the SDC count, and the trap/timeout
// routes together equal the two crash counts. With require set, a trace
// without provenance is itself a failure. Returns the mismatch count.
func verifyProvenance(s *obs.Summary, require bool) int {
	failures := 0
	checked, withProv := 0, 0
	for _, kind := range []string{obs.KindInjection, obs.KindStrike} {
		k, ok := s.ByKind[kind]
		if !ok {
			continue
		}
		for name, w := range k.Workloads {
			for comp, c := range w.Components {
				checked++
				if c.MechRecords == 0 {
					if require {
						fmt.Printf("MISMATCH %s/%s: no record carries a mechanism verdict\n", name, comp)
						failures++
					}
					continue
				}
				withProv++
				if c.PredBad > 0 {
					fmt.Printf("MISMATCH %s/%s: %d predicted records are not masked with a masking mechanism\n",
						name, comp, c.PredBad)
					failures++
				}
				if c.MechRecords != c.Records {
					if c.Predicted > 0 && c.MechRecords == c.Predicted {
						// Pruned campaign without -prov: only the pre-filter's
						// predicted records carry verdicts. Those must all be
						// masking and bounded by the masked class count; the
						// full partition check needs simulated provenance too.
						predMasked := 0
						for _, n := range c.PredMechanisms {
							predMasked += n
						}
						if predMasked > c.Counts[fault.ClassMasked] {
							fmt.Printf("MISMATCH %s/%s: %d predicted-masked records exceed the %d masked outcomes\n",
								name, comp, predMasked, c.Counts[fault.ClassMasked])
							failures++
						}
						continue
					}
					fmt.Printf("MISMATCH %s/%s: %d of %d records carry a mechanism verdict\n",
						name, comp, c.MechRecords, c.Records)
					failures++
				}
				if c.MechMismatch > 0 {
					fmt.Printf("MISMATCH %s/%s: %d mechanism verdicts contradict their outcome class\n",
						name, comp, c.MechMismatch)
					failures++
				}
				masked := 0
				for _, m := range fault.Mechanisms() {
					if m.Masking() {
						masked += c.Mechanisms[m]
					}
				}
				crash := c.Mechanisms[fault.MechPropagatedTrap] + c.Mechanisms[fault.MechPropagatedTimeout]
				parts := []struct {
					label string
					got   int
					want  int
				}{
					{"masked mechanisms", masked, c.Counts[fault.ClassMasked]},
					{"propagated-sdc", c.Mechanisms[fault.MechPropagatedSDC], c.Counts[fault.ClassSDC]},
					{"crash mechanisms", crash, c.Counts[fault.ClassAppCrash] + c.Counts[fault.ClassSysCrash]},
				}
				for _, p := range parts {
					if p.got != p.want {
						fmt.Printf("MISMATCH %s/%s: %s sum to %d, classes count %d\n",
							name, comp, p.label, p.got, p.want)
						failures++
					}
				}
			}
		}
	}
	if require && withProv == 0 && failures == 0 {
		fmt.Println("MISMATCH: trace carries no provenance at all")
		failures++
	}
	if failures == 0 && withProv > 0 {
		fmt.Printf("OK: mechanism verdicts partition the outcome classes (%d workload x component groups)\n", withProv)
	}
	return failures
}

// printSummary renders the per-kind class tables, the worker distribution,
// and the wall-time quantiles.
func printSummary(s *obs.Summary) {
	fmt.Printf("trace: %d records\n", s.Records)
	for _, kind := range []string{obs.KindInjection, obs.KindStrike} {
		k, ok := s.ByKind[kind]
		if !ok {
			continue
		}
		fmt.Printf("\n%s records: %d\n", kind, k.Records)
		names := make([]string, 0, len(k.Workloads))
		for name := range k.Workloads {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("  %-12s %-10s %8s", "workload", "component", "records")
		for _, cls := range fault.Classes() {
			fmt.Printf(" %10s", cls)
		}
		fmt.Println()
		for _, name := range names {
			w := k.Workloads[name]
			comps := make([]fault.Component, 0, len(w.Components))
			for comp := range w.Components {
				comps = append(comps, comp)
			}
			sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
			for _, comp := range comps {
				c := w.Components[comp]
				fmt.Printf("  %-12s %-10s %8d", name, comp, c.Records)
				for _, cls := range fault.Classes() {
					fmt.Printf(" %10d", c.Counts[cls])
				}
				fmt.Println()
			}
		}
	}

	workers := make([]int, 0, len(s.Workers))
	for w := range s.Workers {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	fmt.Printf("\nper-worker records:")
	for _, w := range workers {
		fmt.Printf(" w%d=%d", w, s.Workers[w])
	}
	fmt.Println()
	fmt.Printf("experiment wall time: p50=%v p90=%v p99=%v max=%v\n",
		time.Duration(s.WallQuantile(0.50)), time.Duration(s.WallQuantile(0.90)),
		time.Duration(s.WallQuantile(0.99)), time.Duration(s.WallQuantile(1.0)))
}

// verifyInjection cross-checks the trace against a gefin Result export:
// every workload x component class count must match exactly, and the trace
// must contain exactly N records per component. Returns the mismatch count.
func verifyInjection(s *obs.Summary, path string) int {
	var res gefin.Result
	if err := readJSON(path, &res); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		return 1
	}
	return verifyInjectionResult(s, &res, path)
}

func verifyInjectionResult(s *obs.Summary, res *gefin.Result, label string) int {
	failures := 0
	pred, sim := 0, 0
	for _, w := range res.Workloads {
		for _, cr := range w.Components {
			c := s.Component(obs.KindInjection, w.Workload, cr.Comp)
			pred += c.Predicted
			sim += c.Records - c.Predicted - c.Deduped
			if c.Records != cr.N {
				fmt.Printf("MISMATCH %s/%s: trace has %d records, result expects %d\n",
					w.Workload, cr.Comp, c.Records, cr.N)
				failures++
			}
			for _, cls := range fault.Classes() {
				if c.Counts[cls] != cr.Counts[cls] {
					fmt.Printf("MISMATCH %s/%s/%s: trace counts %d, result counts %d\n",
						w.Workload, cr.Comp, cls, c.Counts[cls], cr.Counts[cls])
					failures++
				}
			}
		}
	}
	// A pruned Result carries its predicted/simulated split outside the
	// Workloads; the trace's predicted records must reproduce it exactly.
	// Simulated means neither predicted nor deduplicated on both sides.
	// (Verify campaigns simulate every slot, so the trace carries no
	// predicted records there — nothing to cross-check.)
	if ps := res.Prune; ps != nil && ps.Verified == 0 {
		if pred != ps.Predicted || sim != ps.Simulated {
			fmt.Printf("MISMATCH prune split: trace has %d predicted / %d simulated records, result summarises %d / %d\n",
				pred, sim, ps.Predicted, ps.Simulated)
			failures++
		} else if pred > 0 {
			fmt.Printf("OK: trace predicted/simulated split matches the result's prune summary (%d / %d)\n", pred, sim)
		}
	}
	if failures == 0 {
		fmt.Printf("OK: trace agrees with injection result %s (%d workloads)\n", label, len(res.Workloads))
	}
	return failures
}

// verifyBeam cross-checks the trace against a beam Result export: strike
// record counts must equal SimulatedStrikes, masked counts must equal
// MaskedStrikes, and the weighted per-class event sums recomputed from the
// trace must be bit-identical to ModeledEvents. Returns the mismatch count.
func verifyBeam(s *obs.Summary, path string) int {
	var res beam.Result
	if err := readJSON(path, &res); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		return 1
	}
	return verifyBeamResult(s, &res, path)
}

func verifyBeamResult(s *obs.Summary, res *beam.Result, label string) int {
	failures := 0
	for _, w := range res.Workloads {
		records, masked := 0, 0
		for _, comp := range fault.Components() {
			c := s.Component(obs.KindStrike, w.Workload, comp)
			records += c.Records
			masked += c.Counts[fault.ClassMasked]
		}
		if records != w.SimulatedStrikes {
			fmt.Printf("MISMATCH %s: trace has %d strikes, result simulated %d\n",
				w.Workload, records, w.SimulatedStrikes)
			failures++
		}
		if masked != w.MaskedStrikes {
			fmt.Printf("MISMATCH %s: trace has %d masked strikes, result counted %d\n",
				w.Workload, masked, w.MaskedStrikes)
			failures++
		}
		modeled := s.ModeledEvents(w.Workload)
		for _, cls := range fault.Classes() {
			if modeled[cls] != w.ModeledEvents[cls] {
				fmt.Printf("MISMATCH %s/%s: trace models %.17g events, result %.17g\n",
					w.Workload, cls, modeled[cls], w.ModeledEvents[cls])
				failures++
			}
		}
	}
	if failures == 0 {
		fmt.Printf("OK: trace agrees with beam result %s (%d workloads)\n", label, len(res.Workloads))
	}
	return failures
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
