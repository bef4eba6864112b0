// Deterministic sequential early stopping for beam campaigns. The unit
// of truncation is the component strike chain: a chain is a
// self-contained sequential session with its own RNG stream, so its
// stopping point is a pure function of the chain's own strike sequence —
// trivially identical at every worker count and across in-process vs.
// sharded execution. The rule watches the chain's per-class strike
// fractions and cuts the chain at the first check boundary where every
// class estimator meets the target margin under the alpha-spending
// correction; the surviving strikes are re-weighted so the stratified
// estimator stays unbiased.

package beam

import (
	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
	"armsefi/internal/stats"
)

// DefaultStopCheckEvery is the default strike-count check-boundary
// spacing of the sequential rule.
const DefaultStopCheckEvery = 10

// StopChain reports one strike chain's sequential-stopping outcome.
type StopChain struct {
	Workload string          `json:"workload"`
	Comp     fault.Component `json:"comp"`
	// Planned and Executed count the chain's strikes before and after
	// truncation; Looks the sequential evaluations taken.
	Planned  int `json:"planned"`
	Executed int `json:"executed"`
	Looks    int `json:"looks"`
	// Margin is the achieved margin at the campaign's plain confidence:
	// the widest Wilson half-width across the chain's class estimators.
	Margin float64 `json:"margin"`
	// Stopped reports whether the rule truncated the chain early.
	Stopped bool `json:"stopped"`
}

// StopSummary reports what the sequential stopping rule did to a beam
// campaign. It lives beside Workloads, never inside them.
type StopSummary struct {
	TargetMargin float64 `json:"target_margin"`
	Confidence   float64 `json:"confidence"`
	// Planned, Executed, and Saved count strikes across the summary's
	// scope: budgeted, simulated after truncation, and cut away.
	Planned  int `json:"planned"`
	Executed int `json:"executed"`
	Saved    int `json:"saved"`
	// Shadow marks a run that simulated every strike (Config.Verify)
	// while computing the same cuts and emitting the truncated result.
	Shadow bool        `json:"shadow,omitempty"`
	Chains []StopChain `json:"chains,omitempty"`
}

// merge folds another summary into s (chains append in call order).
func (s *StopSummary) merge(o *StopSummary) {
	if o == nil {
		return
	}
	s.TargetMargin = o.TargetMargin
	s.Confidence = o.Confidence
	s.Shadow = o.Shadow
	s.Planned += o.Planned
	s.Executed += o.Executed
	s.Saved += o.Saved
	s.Chains = append(s.Chains, o.Chains...)
}

// chainStop is one strike chain's sequential monitor. Chains are
// single-goroutine, so it needs no locking; a nil monitor is inert.
type chainStop struct {
	rule     stats.SeqRule
	every    int
	shadow   bool
	conv     *obs.ConvRegistry
	ob       *obs.Observer
	tc       obs.TraceContext
	workload string
	comp     fault.Component
	perComp  int

	look int
	cut  int          // strike count at the cut; -1 until the rule fires
	snap *chainResult // chain state at the cut (shadow mode only)
}

// newChainStop builds the monitor for one chain, or nil when neither
// early stopping nor convergence observability is wanted.
func newChainStop(cfg Config, workload string, comp fault.Component, perComp int, conv *obs.ConvRegistry, tc obs.TraceContext) *chainStop {
	rule := stats.SeqRule{TargetMargin: cfg.TargetMargin, Confidence: cfg.Confidence}
	if !rule.Enabled() && !cfg.Obs.On() {
		return nil
	}
	every := cfg.StopCheckEvery
	if every <= 0 {
		every = DefaultStopCheckEvery
	}
	return &chainStop{
		rule:     rule,
		every:    every,
		shadow:   cfg.Verify,
		conv:     conv,
		ob:       cfg.Obs,
		tc:       tc,
		workload: workload,
		comp:     comp,
		perComp:  perComp,
		cut:      -1,
	}
}

// record watches the chain after each strike (out already holds the
// strike's class tally in counts/sims) and, at check boundaries, takes a
// sequential look: evaluates the stopping rule, refreshes the
// convergence estimators, and emits their snapshots. It returns true
// when the chain should stop executing — the rule fired and the run is
// not a shadow. Once the cut is set the estimators freeze, so a shadow
// run reports exactly what a genuinely stopped run would.
func (cs *chainStop) record(out *chainResult) bool {
	if cs == nil || cs.cut >= 0 {
		return false
	}
	n := out.sims
	if n%cs.every != 0 && n != cs.perComp {
		return false
	}
	cs.look++
	if cs.rule.Enabled() {
		all := true
		for _, k := range out.counts {
			if !cs.rule.Met(k, n, cs.look) {
				all = false
				break
			}
		}
		if all {
			cs.cut = n
			if cs.shadow {
				cs.snap = snapshotChain(out)
			}
		}
	}
	snaps := make([]obs.ConvSnapshot, 0, fault.NumClasses)
	for _, cls := range fault.Classes() {
		key := obs.ConvKey{Workload: cs.workload, Comp: cs.comp, Class: cls}
		snaps = append(snaps, cs.conv.Update(key, out.counts[int(cls)-1], n, cs.perComp, cs.look, cs.cut >= 0))
	}
	cs.ob.Convergence(snaps, cs.tc)
	return cs.cut >= 0 && !cs.shadow
}

// finishChain folds the monitor's verdict into the chain result: in
// shadow mode it restores the chain state captured at the cut, and for a
// truncated chain it re-weights the surviving strikes so each carries
// expected_strikes/executed — the stratified estimator stays unbiased at
// the reduced sample size.
func (cs *chainStop) finishChain(out *chainResult) {
	if cs == nil {
		return
	}
	if cs.cut >= 0 && cs.shadow {
		*out = *cs.snap
	}
	out.looks = cs.look
	out.stopped = cs.cut >= 0 && cs.cut < cs.perComp
	for _, k := range out.counts {
		if m := cs.rule.Margin(k, out.sims); m > out.margin {
			out.margin = m
		}
	}
	if out.stopped {
		scale := float64(cs.perComp) / float64(out.sims)
		for cls, v := range out.events {
			out.events[cls] = v * scale
		}
		out.weightedMismatches *= scale
	}
}

// snapshotChain deep-copies a chain result (shadow mode captures the
// state at the cut while the chain keeps executing).
func snapshotChain(out *chainResult) *chainResult {
	c := *out
	c.events = make(map[fault.Class]float64, len(out.events))
	for cls, v := range out.events {
		c.events[cls] = v
	}
	return &c
}
