// Package harness prepares workloads for reliability experiments: it
// boots a machine, stages the workload and its input, captures the
// post-boot snapshot (the gem5-checkpoint analogue), validates the golden
// run against the native reference, and exposes single-fault runs with
// outcome classification. Both the GeFIN-like injection campaigns and the
// beam simulator build on it.
package harness

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime/pprof"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/mem"
	"armsefi/internal/soc"
)

// Phased runs fn under a pprof "phase" label, so -cpuprofile output
// attributes campaign time to its phase — golden replay, ladder capture,
// liveness build, shard execution — instead of one flat profile.
func Phased(phase string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) { fn() })
}

// Default cycle budgets.
const (
	// BootBudget bounds kernel boot.
	BootBudget = 50_000_000
	// GoldenBudget bounds a fault-free workload run.
	GoldenBudget = 4_000_000_000
)

// Workbench is a machine prepared to run one workload repeatedly.
type Workbench struct {
	Machine *soc.Machine
	Built   *bench.Built
	Snap    *soc.Snapshot
	// Golden is the fault-free run from the cold post-boot snapshot (the
	// conditions of every injection run).
	Golden soc.Result
	// Watchdog is the cycle budget for faulty runs before the host declares
	// a hang.
	Watchdog uint64
	// Ladder is the golden-run checkpoint ladder, built on demand by
	// BuildLadder. When present (and its warm mode matches), fault runs
	// fast-forward to the nearest rung below the injection cycle and exit
	// early on golden convergence. Immutable once built; clones share it.
	Ladder *soc.Ladder
	// Liveness is the instrumented golden replay's liveness log, built on
	// demand by BuildLiveness for campaigns that prune provably-masked
	// injections before simulating. Immutable once built; clones share it.
	Liveness *soc.LivenessLog
}

// New builds a machine for the preset and model, loads the workload, boots,
// snapshots, and validates the golden run bit-for-bit against the native
// reference output.
func New(cfg soc.Config, model soc.ModelKind, built *bench.Built) (*Workbench, error) {
	m, err := soc.NewMachine(cfg, model)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	if err := m.LoadApp(built.Program); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	if len(built.Input) > 0 {
		if err := m.PokeBytes(built.InputAddr, built.Input); err != nil {
			return nil, fmt.Errorf("harness: staging input: %w", err)
		}
	}
	if err := m.Boot(BootBudget); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	w := &Workbench{Machine: m, Built: built, Snap: m.SaveSnapshot()}
	Phased("golden-replay", func() {
		m.RestoreSnapshot(w.Snap, false)
		w.Golden = m.Run(GoldenBudget)
	})
	if !w.Golden.CleanExit() {
		return nil, fmt.Errorf("harness: golden run of %s/%s did not exit cleanly: %v code=%#x",
			built.Spec.Name, built.Scale, w.Golden.Outcome, w.Golden.ExitCode)
	}
	if !bytes.Equal(w.Golden.Output, built.Golden) {
		return nil, fmt.Errorf("harness: golden output of %s/%s diverges from the native reference (%d vs %d bytes)",
			built.Spec.Name, built.Scale, len(w.Golden.Output), len(built.Golden))
	}
	w.Watchdog = 2*w.Golden.Cycles + 50*uint64(cfg.TimerPeriod)
	return w, nil
}

// Build assembles a workload spec at the given scale and prepares a
// workbench for it — the spec.Build + New sequence every campaign engine
// opens with, shared so the shard runners of the campaign service set up
// workloads exactly like the in-process engines do.
func Build(cfg soc.Config, model soc.ModelKind, spec bench.Spec, scale bench.Scale) (*Workbench, error) {
	built, err := spec.Build(soc.UserAsmConfig(), scale)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return New(cfg, model, built)
}

// Clone builds a sibling workbench over the same built workload: a fresh
// machine with the original's preset and model, booted to the same
// post-boot point. Because the machine is deterministic, the sibling's
// snapshot is bit-equal to the original's, so the golden run and watchdog
// are inherited rather than re-validated — a clone costs one kernel boot
// instead of a boot plus a full workload run (and no re-assembly: Built is
// shared read-only). Siblings share no mutable state; the parallel
// campaign engines give each worker goroutine its own workbench.
func (w *Workbench) Clone() (*Workbench, error) {
	m, err := soc.NewMachine(w.Machine.Cfg, w.Machine.Model)
	if err != nil {
		return nil, fmt.Errorf("harness: clone: %w", err)
	}
	if err := m.LoadApp(w.Built.Program); err != nil {
		return nil, fmt.Errorf("harness: clone: %w", err)
	}
	if len(w.Built.Input) > 0 {
		if err := m.PokeBytes(w.Built.InputAddr, w.Built.Input); err != nil {
			return nil, fmt.Errorf("harness: clone: staging input: %w", err)
		}
	}
	if err := m.Boot(BootBudget); err != nil {
		return nil, fmt.Errorf("harness: clone: %w", err)
	}
	m.VerifyConvergence = w.Machine.VerifyConvergence
	return &Workbench{
		Machine:  m,
		Built:    w.Built,
		Snap:     m.SaveSnapshot(),
		Golden:   w.Golden,
		Watchdog: w.Watchdog,
		// The ladder and liveness log are immutable after capture and every
		// restore path deep-copies state out of them, so siblings share one
		// of each (their base snapshot is bit-equal to the sibling's own).
		Ladder:   w.Ladder,
		Liveness: w.Liveness,
	}, nil
}

// BuildLadder captures the golden-run checkpoint ladder used to accelerate
// subsequent fault runs: rungs every `every` cycles (zero picks the
// platform default), at most max mid-run rungs — the effective spacing
// grows to fit long golden runs — captured under the given warm mode,
// which must match the warm argument of later fault runs. The capture
// replay's Result is validated against the golden reference before the
// ladder is installed, so a ladder can never change campaign results.
func (w *Workbench) BuildLadder(every uint64, max int, warm bool) error {
	if every == 0 {
		every = soc.DefaultCheckpointEvery
	}
	// Short golden runs shrink the spacing so the ladder still gets ~16
	// rungs to fast-forward and early-exit through: the paper-scale
	// default spacing would otherwise leave a sub-150k-cycle workload with
	// rung 0 alone. Long runs keep the configured spacing, and the
	// MaxCheckpoints bound grows it back if the rung count would exceed
	// the cap.
	if short := w.Golden.Cycles/16 + 1; every > short {
		every = short
	}
	if max > 0 {
		if need := w.Golden.Cycles/uint64(max) + 1; need > every {
			every = need
		}
	}
	var l *soc.Ladder
	Phased("ladder-capture", func() {
		l = w.Machine.CaptureLadder(w.Snap, warm, every, max, GoldenBudget)
	})
	if !l.Final.CleanExit() {
		return fmt.Errorf("harness: ladder capture run of %s/%s did not exit cleanly: %v code=%#x",
			w.Built.Spec.Name, w.Built.Scale, l.Final.Outcome, l.Final.ExitCode)
	}
	if !bytes.Equal(l.Final.Output, w.Built.Golden) {
		return fmt.Errorf("harness: ladder capture output of %s/%s diverges from the native reference",
			w.Built.Spec.Name, w.Built.Scale)
	}
	if !warm && !reflect.DeepEqual(l.Final, w.Golden) {
		return fmt.Errorf("harness: ladder capture of %s/%s is not bit-identical to the golden run (%+v vs %+v)",
			w.Built.Spec.Name, w.Built.Scale, l.Final, w.Golden)
	}
	w.Ladder = l
	return nil
}

// BuildLiveness performs the instrumented golden replay that records
// per-location liveness for the campaign pre-filter, under the given warm
// mode (which must match later fault runs'). Like BuildLadder, the
// replay's Result is validated against the golden reference before the
// log is installed, so a log can never be built from a diverged replay —
// and since decided pre-filter verdicts are exactly what simulation would
// conclude, pruning can then never change campaign results either.
func (w *Workbench) BuildLiveness(warm bool) error {
	var log *soc.LivenessLog
	Phased("liveness-build", func() {
		log = w.Machine.ReplayLiveness(w.Snap, warm, GoldenBudget)
	})
	if !log.Final.CleanExit() {
		return fmt.Errorf("harness: liveness replay of %s/%s did not exit cleanly: %v code=%#x",
			w.Built.Spec.Name, w.Built.Scale, log.Final.Outcome, log.Final.ExitCode)
	}
	if !bytes.Equal(log.Final.Output, w.Built.Golden) {
		return fmt.Errorf("harness: liveness replay output of %s/%s diverges from the native reference",
			w.Built.Spec.Name, w.Built.Scale)
	}
	if !warm && !reflect.DeepEqual(log.Final, w.Golden) {
		return fmt.Errorf("harness: liveness replay of %s/%s is not bit-identical to the golden run (%+v vs %+v)",
			w.Built.Spec.Name, w.Built.Scale, log.Final, w.Golden)
	}
	w.Liveness = log
	return nil
}

// RunFault restores the cold snapshot (caches reset, as GeFIN does on every
// experiment), injects the fault at its cycle, runs to completion or
// watchdog, and classifies the outcome.
func (w *Workbench) RunFault(f fault.Fault) fault.Class {
	cls, _, _, _ := w.RunFaultLadder(f, false)
	return cls
}

// RunFaultLadder runs one fault from the cold (or, warm, the live
// post-boot) cache state and reports, beside the outcome class, what it
// struck (resolved at the injection instant: live vs idle content, kernel
// vs user ownership — the injector-side observability of Section IV-C),
// the raw machine-level result the observability trace records, and what
// the checkpoint ladder did for the run. When a matching ladder is
// installed the run goes through it transparently and the Result is
// bit-identical; otherwise the stats are zero.
func (w *Workbench) RunFaultLadder(f fault.Fault, warm bool) (fault.Class, fault.Context, soc.Result, soc.LadderStats) {
	return w.RunFaultProv(f, warm, nil)
}

// RunFaultProv runs one fault like RunFaultLadder with a propagation
// provenance probe attached: the struck location is tainted at the
// injection instant (liveness resolved pre-flip), the memory and CPU
// models report lifecycle events on it into p, and all taint is disarmed
// again before returning — the probe is purely observational and the
// Result is bit-identical to the probe-free path. The caller reads the
// mechanism verdict via fault.MechanismOf; p.Armed() is false for targets
// without taint support (tag arrays). A nil p runs probe-free.
func (w *Workbench) RunFaultProv(f fault.Fault, warm bool, p *mem.Probe) (fault.Class, fault.Context, soc.Result, soc.LadderStats) {
	if p != nil {
		core := w.Machine.Core()
		p.Reset(core.Cycles, core.PC)
		defer fault.Disarm(w.Machine)
	}
	var ctx fault.Context
	inject := func() {
		ctx = fault.ContextOf(w.Machine, f)
		if p != nil {
			fault.Arm(w.Machine, f, p)
		}
		fault.Apply(w.Machine, f)
	}
	var res soc.Result
	var stats soc.LadderStats
	if w.Ladder != nil && w.Ladder.Warm() == warm {
		res, stats = w.Machine.RunLadderInjection(w.Ladder, w.Watchdog, f.Cycle, inject)
	} else {
		w.Machine.RestoreSnapshot(w.Snap, warm)
		res = w.Machine.RunWithInjection(w.Watchdog, f.Cycle, inject)
	}
	return fault.Classify(res, w.Built.Golden, w.Machine.Cfg.TimerPeriod), ctx, res, stats
}

// RunClean restores the cold snapshot and runs fault-free; useful for
// timing and determinism checks.
func (w *Workbench) RunClean() soc.Result {
	w.Machine.RestoreSnapshot(w.Snap, false)
	return w.Machine.Run(w.Watchdog)
}
