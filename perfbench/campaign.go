package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"armsefi/internal/bench"
	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/soc"
)

// Campaign shapes. Every workload is tiny scale on the detailed model;
// injection runs start from cold caches (GeFIN), beam chains from the
// warm steady state. README.md gives the measured phase shares these
// sizes were chosen on. The --faults and --strikes flags change the
// timed sizes for sizing studies; digests.json records only the defaults.
var (
	// FaultsPerComponent sizes one injection campaign: crc32+qsort+fft x
	// six components x this many faults.
	FaultsPerComponent = 100
	// StrikesPerComponent sizes one beam campaign: crc32+qsort x six
	// component chains x this many strikes.
	StrikesPerComponent = 4
)

const (
	// SetupRepeats is how many times a run sets its workload up; setup_s
	// is the median.
	SetupRepeats = 5
	// WarmupFaults and WarmupStrikes size the warm-up campaign that ends
	// each set-up: the timed campaigns' workloads, components and
	// configuration at this size, so a set-up is mostly each workload's
	// golden run, ladder and liveness log rather than simulation.
	WarmupFaults  = 4
	WarmupStrikes = 1
)

var (
	injectWorkloads = []string{"crc32", "qsort", "fft"}
	beamWorkloads   = []string{"crc32", "qsort"}
)

// injectConfig is the accelerated injection campaign both injection
// workloads run: checkpoint ladder, pre-filter and dedup on.
func injectConfig(seed int64, workers, faults int) gefin.Config {
	return gefin.Config{
		Preset:             soc.PresetModel(),
		Model:              soc.ModelDetailed,
		Scale:              bench.ScaleTiny,
		FaultsPerComponent: faults,
		Components:         fault.Components(),
		Seed:               seed,
		CheckpointEvery:    soc.DefaultCheckpointEvery,
		MaxCheckpoints:     soc.DefaultMaxCheckpoints,
		Prune:              true,
		Dedup:              true,
		Workers:            workers,
	}
}

// plainInjectConfig is the same campaign on the paper's literal method:
// every injection replays from the post-boot snapshot.
func plainInjectConfig(seed int64, workers, faults int) gefin.Config {
	cfg := injectConfig(seed, workers, faults)
	cfg.CheckpointEvery, cfg.MaxCheckpoints = 0, 0
	cfg.Prune, cfg.Dedup = false, false
	return cfg
}

// beamConfig is the live-board beam campaign with the ladder on, as in
// the beamsim default.
func beamConfig(seed int64, workers, strikes int) beam.Config {
	return beam.Config{
		Preset:              soc.PresetZynq(),
		Model:               soc.ModelDetailed,
		Scale:               bench.ScaleTiny,
		Seed:                seed,
		CheckpointEvery:     soc.DefaultCheckpointEvery,
		MaxCheckpoints:      soc.DefaultMaxCheckpoints,
		StrikesPerComponent: strikes,
		Workers:             workers,
	}
}

func plainBeamConfig(seed int64, workers, strikes int) beam.Config {
	cfg := beamConfig(seed, workers, strikes)
	cfg.CheckpointEvery, cfg.MaxCheckpoints = 0, 0
	return cfg
}

// injectPlanLen is the number of planned injections of one timed
// campaign.
func injectPlanLen() int {
	return len(injectWorkloads) * fault.NumComponents * FaultsPerComponent
}

func specs(names []string) []bench.Spec {
	out := make([]bench.Spec, len(names))
	for i, n := range names {
		s, ok := bench.ByName(n)
		if !ok {
			panic("perfbench: unknown bench workload " + n)
		}
		out[i] = s
	}
	return out
}

// splitmix64 is the SplitMix64 finaliser, used to derive campaign seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// campaignSeed derives the seed of campaign i of a run from the workload
// seed: distinct per campaign, so no result can be reused across the
// campaigns of a run.
func campaignSeed(workloadSeed int64, i int) int64 {
	return int64(splitmix64(splitmix64(uint64(workloadSeed))+uint64(i)) >> 2)
}

// warmupSeedBase makes the set-up campaigns' seeds, which are the same
// in every run so that setup_s compares across runs.
const warmupSeedBase = 0x5e7a9

// warmupSeed returns the seed of set-up repetition i.
func warmupSeed(i int) int64 { return campaignSeed(warmupSeedBase, i) }

// digestOf is the SHA-256 of a Result's Workloads, the part of a Result
// every accelerator and execution path must reproduce byte for byte.
func digestOf(workloads any) string {
	data, err := json.Marshal(workloads)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshalling workloads: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// digestTable holds the plain-engine digests recorded for the default
// workload seed and the set-up campaigns, per campaign shape and keyed
// by campaign seed, plus each workload's golden run (seed- and
// shape-independent).
type digestTable struct {
	Inject kindDigests `json:"inject"`
	Beam   kindDigests `json:"beam"`
}

type kindDigests struct {
	Golden map[string]uint64 `json:"golden_cycles"`
	// Shapes maps a campaign shape (injectShape, beamShape) to the
	// digests recorded for it.
	Shapes map[string]map[string]string `json:"shapes"`
}

// campaignDigests checks the campaigns of one shape.
type campaignDigests struct {
	Golden map[string]uint64
	// Campaigns maps campaign seed to digest; nil when the table records
	// nothing for the shape.
	Campaigns map[string]string
	// size is the shape's faults per component or strikes per chain.
	size int
}

func injectShape(faults int) string {
	return fmt.Sprintf("gefin %v x %d faults, tiny, detailed", injectWorkloads, faults)
}

func beamShape(strikes int) string {
	return fmt.Sprintf("beam %v x %d strikes, tiny, detailed", beamWorkloads, strikes)
}

// inject and beam return the checks of the injection and beam shapes of
// the given size.
func (t *digestTable) inject(faults int) campaignDigests {
	return campaignDigests{Golden: t.Inject.Golden, Campaigns: t.Inject.Shapes[injectShape(faults)], size: faults}
}

func (t *digestTable) beam(strikes int) campaignDigests {
	return campaignDigests{Golden: t.Beam.Golden, Campaigns: t.Beam.Shapes[beamShape(strikes)], size: strikes}
}

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (*digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	for sh, recorded := range map[string]bool{
		injectShape(FaultsPerComponent): t.Inject.Shapes[injectShape(FaultsPerComponent)] != nil,
		beamShape(StrikesPerComponent):  t.Beam.Shapes[beamShape(StrikesPerComponent)] != nil,
	} {
		if !recorded {
			fmt.Printf("digests.json records nothing for %q: its campaigns are checked for structure only\n", sh)
		}
	}
	return &t, nil
}

// verdict is the outcome of checking one campaign.
type verdict struct {
	digest   string
	returned bool  // the campaign returned a Result (checked or not)
	recorded bool  // a digest was recorded for this campaign seed
	err      error // non-nil: the campaign counts as failed
}

// check compares a digest against the table and folds in structural
// errors found by the caller. At the default workload seed every
// campaign must have a recorded digest, so a run that outpaces the table
// fails rather than going unchecked; workloadSeed is the run's --seed.
func (d campaignDigests) check(workloadSeed, seed int64, digest string, structural error) verdict {
	v := verdict{digest: digest, returned: true, err: structural}
	want, ok := d.Campaigns[strconv.FormatInt(seed, 10)]
	v.recorded = ok
	switch {
	case v.err != nil:
	case ok && want != digest:
		v.err = fmt.Errorf("campaign seed %d: digest %s, recorded %s", seed, digest[:16], want[:16])
	case !ok && workloadSeed == DefaultSeed && d.Campaigns != nil:
		v.err = fmt.Errorf("campaign seed %d: no digest recorded at the default workload seed; record more campaigns", seed)
	}
	return v
}

// checkInject validates the structure of an injection Result: every
// workload in order with its recorded golden run, every component with
// the full sample and counts summing to it.
func (d campaignDigests) checkInject(res *gefin.Result) error {
	if len(res.Workloads) != len(injectWorkloads) {
		return fmt.Errorf("%d workloads, want %d", len(res.Workloads), len(injectWorkloads))
	}
	for i, w := range res.Workloads {
		if w.Workload != injectWorkloads[i] {
			return fmt.Errorf("workload %d is %s, want %s", i, w.Workload, injectWorkloads[i])
		}
		if g := d.Golden[w.Workload]; g != w.GoldenCycles {
			return fmt.Errorf("%s golden run %d cycles, recorded %d", w.Workload, w.GoldenCycles, g)
		}
		if len(w.Components) != fault.NumComponents {
			return fmt.Errorf("%s: %d components", w.Workload, len(w.Components))
		}
		for _, c := range w.Components {
			sum := 0
			for _, n := range c.Counts {
				sum += n
			}
			if c.N != d.size || sum != c.N {
				return fmt.Errorf("%s/%v: N=%d, counts sum %d, want %d", w.Workload, c.Comp, c.N, sum, d.size)
			}
		}
	}
	return nil
}

// checkBeam validates the structure of a beam Result.
func (d campaignDigests) checkBeam(res *beam.Result) error {
	if len(res.Workloads) != len(beamWorkloads) {
		return fmt.Errorf("%d workloads, want %d", len(res.Workloads), len(beamWorkloads))
	}
	for i, w := range res.Workloads {
		if w.Workload != beamWorkloads[i] {
			return fmt.Errorf("workload %d is %s, want %s", i, w.Workload, beamWorkloads[i])
		}
		if g := d.Golden[w.Workload]; g != w.GoldenCycles {
			return fmt.Errorf("%s golden run %d cycles, recorded %d", w.Workload, w.GoldenCycles, g)
		}
		if want := fault.NumComponents * d.size; w.SimulatedStrikes != want {
			return fmt.Errorf("%s: %d strikes, want %d", w.Workload, w.SimulatedStrikes, want)
		}
	}
	return nil
}

// simulatedRuns counts the injections that executed the simulator:
// plan length (the Result's sample sizes) minus pre-filter predictions
// minus dedup materializations.
// Result.Prune.Simulated is not used: on the service path it also
// counts dedup-materialized slots.
func simulatedRuns(res *gefin.Result) int {
	n := 0
	for _, w := range res.Workloads {
		for _, c := range w.Components {
			n += c.N
		}
	}
	if res.Prune != nil {
		n -= res.Prune.Predicted
	}
	if res.Dedup != nil {
		n -= res.Dedup.Deduped
	}
	return n
}

func beamStrikes(res *beam.Result) int {
	n := 0
	for _, w := range res.Workloads {
		n += w.SimulatedStrikes
	}
	return n
}

// recordDigests runs the set-up campaigns and the first n campaigns of
// the workload seed on the plain engines (no ladder, pre-filter or
// dedup) and prints their digests. With out set it adds them to the
// table in that file, creating it if missing and skipping campaigns it
// already records, and rewrites the file after every campaign, so a long
// recording can be stopped and resumed.
func recordDigests(opts options, n int, out string) error {
	t := digestTable{
		Inject: kindDigests{Golden: map[string]uint64{}, Shapes: map[string]map[string]string{}},
		Beam:   kindDigests{Golden: map[string]uint64{}, Shapes: map[string]map[string]string{}},
	}
	if out != "" {
		if data, err := os.ReadFile(out); err == nil {
			if err := json.Unmarshal(data, &t); err != nil {
				return fmt.Errorf("%s: %w", out, err)
			}
		}
	}
	type campaign struct {
		seed            int64
		faults, strikes int
	}
	var todo []campaign
	for i := 0; i < SetupRepeats; i++ {
		todo = append(todo, campaign{warmupSeed(i), WarmupFaults, WarmupStrikes})
	}
	for i := 0; i < n; i++ {
		todo = append(todo, campaign{campaignSeed(opts.seed, i), FaultsPerComponent, StrikesPerComponent})
	}
	// entry returns the table slot of one campaign, creating its shape.
	entry := func(k *kindDigests, shape string, seed int64) (map[string]string, string) {
		if k.Shapes[shape] == nil {
			k.Shapes[shape] = map[string]string{}
		}
		return k.Shapes[shape], strconv.FormatInt(seed, 10)
	}
	workers := runtime.NumCPU()
	for _, c := range todo {
		im, key := entry(&t.Inject, injectShape(c.faults), c.seed)
		if im[key] == "" {
			ir, err := gefin.Run(plainInjectConfig(c.seed, workers, c.faults), specs(injectWorkloads), nil)
			if err != nil {
				return err
			}
			for _, w := range ir.Workloads {
				t.Inject.Golden[w.Workload] = w.GoldenCycles
			}
			im[key] = digestOf(ir.Workloads)
		}
		bm, _ := entry(&t.Beam, beamShape(c.strikes), c.seed)
		if bm[key] == "" {
			br, err := beam.Run(plainBeamConfig(c.seed, workers, c.strikes), specs(beamWorkloads), nil)
			if err != nil {
				return err
			}
			for _, w := range br.Workloads {
				t.Beam.Golden[w.Workload] = w.GoldenCycles
			}
			bm[key] = digestOf(br.Workloads)
		}
		fmt.Printf("seed %d inject %s beam %s\n", c.seed, im[key], bm[key])
		if out == "" {
			continue
		}
		data, err := json.MarshalIndent(t, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
