// Package report renders the reproduction's results in the shape of the
// paper's tables and figures: plain-text tables with the same rows and
// series, suitable for terminal output and for EXPERIMENTS.md.
package report

import (
	"fmt"
	"sort"
	"strings"

	"armsefi/internal/bench"
	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/fit"
	"armsefi/internal/core/gefin"
	"armsefi/internal/cpu"
	"armsefi/internal/obs"
	"armsefi/internal/soc"
	"armsefi/internal/stats"
)

// Table is a generic text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// AbstractionRow is one measured row of Table I.
type AbstractionRow struct {
	Layer        string
	Model        string
	CyclesPerSec float64
}

// TableI renders the abstraction-layer throughput table.
func TableI(rows []AbstractionRow) string {
	t := Table{
		Title:  "Table I: performance of different abstraction layer models (measured)",
		Header: []string{"Abstraction Layer", "Model", "Performance (cycles/sec)"},
	}
	for _, r := range rows {
		t.Add(r.Layer, r.Model, fmt.Sprintf("%.3g", r.CyclesPerSec))
	}
	return t.String()
}

// TableII renders the setup-attribute comparison of the two platforms.
func TableII(zynq, model soc.Config) string {
	t := Table{
		Title:  "Table II: summary of setup attributes",
		Header: []string{"Property", "Beam", "Gem5"},
	}
	cacheStr := func(c soc.Config, l1 bool) string {
		if l1 {
			return fmt.Sprintf("%d KB %d-way", c.Mem.L1D.SizeBytes>>10, c.Mem.L1D.Ways)
		}
		return fmt.Sprintf("%d KB %d-way", c.Mem.L2.SizeBytes>>10, c.Mem.L2.Ways)
	}
	t.Add("Microarchitecture", "Cortex-A9", "Cortex-A9*")
	t.Add("Platform", zynq.Platform, model.Platform)
	t.Add("CPU cores", "1*", "1")
	t.Add("L1 Cache", cacheStr(zynq, true), cacheStr(model, true))
	t.Add("L2 Cache", cacheStr(zynq, false), cacheStr(model, false))
	t.Add("Kernel version", zynq.KernelVersion, model.KernelVersion)
	t.Add("TLB entries", fmt.Sprintf("%d", zynq.Mem.TLBEntries), fmt.Sprintf("%d", model.Mem.TLBEntries))
	return t.String()
}

// TableIII renders the benchmark/input table.
func TableIII(specs []bench.Spec) string {
	t := Table{
		Title:  "Table III: input used and benchmark characteristics",
		Header: []string{"Benchmark", "Input", "Characteristics"},
	}
	for _, s := range specs {
		t.Add(s.Name, s.InputDesc, s.Characteristics)
	}
	return t.String()
}

// TableIV renders the per-component error-margin summary across workloads.
func TableIV(res *gefin.Result) string {
	t := Table{
		Title:  "Table IV: min, max, and average error margin per component (99% confidence)",
		Header: []string{"Component", "Min Err", "Max Err", "Avg Err"},
	}
	for _, comp := range fault.Components() {
		var margins []float64
		for _, w := range res.Workloads {
			if c, ok := w.Component(comp); ok {
				margins = append(margins, c.ErrorMargin())
			}
		}
		s := stats.Summarise(margins)
		t.Add(fault.PaperNames[comp],
			fmt.Sprintf("%.1f %%", 100*s.Min),
			fmt.Sprintf("%.1f %%", 100*s.Max),
			fmt.Sprintf("%.1f %%", 100*s.Avg))
	}
	return t.String()
}

// Fig3 renders the beam FIT rates per workload and class.
func Fig3(res *beam.Result) string {
	t := Table{
		Title:  "Figure 3: beam FIT rates for SDCs, Application Crashes, and System Crashes",
		Header: []string{"Benchmark", "SDC FIT", "AppCrash FIT", "SysCrash FIT", "Total", "err/exec"},
	}
	for i := range res.Workloads {
		w := &res.Workloads[i]
		t.Add(w.Workload,
			fmt.Sprintf("%.2f", w.FIT(fault.ClassSDC)),
			fmt.Sprintf("%.2f", w.FIT(fault.ClassAppCrash)),
			fmt.Sprintf("%.2f", w.FIT(fault.ClassSysCrash)),
			fmt.Sprintf("%.2f", w.TotalFIT()),
			fmt.Sprintf("%.2g", w.ErrorRatePerExecution()))
	}
	return t.String()
}

// Fig4 renders the fault-injection classification (AVF) per workload and
// component.
func Fig4(res *gefin.Result) string {
	t := Table{
		Title:  "Figure 4: fault-injection effects classification (fractions of injected faults)",
		Header: []string{"Benchmark", "Component", "Masked", "SDC", "AppCrash", "SysCrash", "AVF"},
	}
	for _, w := range res.Workloads {
		for _, c := range w.Components {
			t.Add(w.Workload, c.Comp.String(),
				fmt.Sprintf("%.3f", c.ClassFraction(fault.ClassMasked)),
				fmt.Sprintf("%.3f", c.ClassFraction(fault.ClassSDC)),
				fmt.Sprintf("%.3f", c.ClassFraction(fault.ClassAppCrash)),
				fmt.Sprintf("%.3f", c.ClassFraction(fault.ClassSysCrash)),
				fmt.Sprintf("%.3f", c.AVF()))
		}
	}
	return t.String()
}

// PruneSplit renders a pruned campaign's predicted/simulated split: how
// many planned injections the liveness pre-filter proved masked without
// simulation, by masking mechanism.
func PruneSplit(s *gefin.PruneSummary) string {
	t := Table{
		Title:  "Campaign pre-filter: predicted vs simulated injections",
		Header: []string{"Verdict", "Count", "Share"},
	}
	total := s.Predicted + s.Simulated
	pct := func(n int) string {
		if total == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f %%", 100*float64(n)/float64(total))
	}
	mechs := make([]string, 0, len(s.ByMechanism))
	for m := range s.ByMechanism {
		mechs = append(mechs, m)
	}
	sort.Strings(mechs)
	for _, m := range mechs {
		t.Add("predicted "+m, fmt.Sprintf("%d", s.ByMechanism[m]), pct(s.ByMechanism[m]))
	}
	t.Add("predicted (all)", fmt.Sprintf("%d", s.Predicted), pct(s.Predicted))
	t.Add("simulated", fmt.Sprintf("%d", s.Simulated), pct(s.Simulated))
	return t.String()
}

// DedupSplit renders a deduplicated campaign's materialized/simulated
// split: how many planned injections resolved from an equivalence-class
// representative instead of their own simulation.
func DedupSplit(s *gefin.DedupSummary) string {
	t := Table{
		Title:  "Equivalence-class deduplication: materialized vs simulated injections",
		Header: []string{"Verdict", "Count", "Share"},
	}
	total := s.Deduped + s.Simulated
	pct := func(n int) string {
		if total == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f %%", 100*float64(n)/float64(total))
	}
	t.Add("deduplicated", fmt.Sprintf("%d", s.Deduped), pct(s.Deduped))
	t.Add("simulated", fmt.Sprintf("%d", s.Simulated), pct(s.Simulated))
	if s.Classes > 0 {
		t.Add("classes", fmt.Sprintf("%d", s.Classes),
			fmt.Sprintf("max size %d", s.MaxClass))
	}
	return t.String()
}

// SweepTable renders an exhaustive sweep's enumeration statistics: how
// each component's full site x cycle population collapsed into (site,
// quiescent-window) classes, and the population-exact AVF they measure.
func SweepTable(s *gefin.SweepSummary) string {
	t := Table{
		Title:  "Exhaustive sweep: site x window enumeration (population-exact AVF)",
		Header: []string{"Benchmark", "Component", "Sites", "Windows", "Population", "Mean width", "Max width", "AVF"},
	}
	for _, c := range s.Components {
		t.Add(c.Workload, c.Comp.String(),
			fmt.Sprintf("%d", c.Sites),
			fmt.Sprintf("%d", c.Windows),
			fmt.Sprintf("%d", c.Population),
			fmt.Sprintf("%.1f", c.MeanWidth),
			fmt.Sprintf("%d", c.MaxWidth),
			fmt.Sprintf("%.6f", c.AVF))
	}
	return t.String()
}

// Fig5 renders the injection-predicted FIT rates.
func Fig5(injs []fit.Injection) string {
	t := Table{
		Title:  "Figure 5: fault-injection FIT rates (FIT_raw x size x AVF)",
		Header: []string{"Benchmark", "SDC FIT", "AppCrash FIT", "SysCrash FIT", "Total"},
	}
	for _, in := range injs {
		t.Add(in.Workload,
			fmt.Sprintf("%.2f", in.PerClass[fault.ClassSDC]),
			fmt.Sprintf("%.2f", in.PerClass[fault.ClassAppCrash]),
			fmt.Sprintf("%.2f", in.PerClass[fault.ClassSysCrash]),
			fmt.Sprintf("%.2f", in.Total()))
	}
	return t.String()
}

// ratioStr formats a Figure 6-9 ratio (positive: beam higher).
func ratioStr(r float64) string {
	if r >= 0 {
		return fmt.Sprintf("beam %.1fx higher", r)
	}
	return fmt.Sprintf("injection %.1fx higher", -r)
}

// FigRatio renders one of Figures 6, 7, or 8 for a class.
func FigRatio(title string, cs []fit.Comparison, cls fault.Class) string {
	t := Table{
		Title:  title,
		Header: []string{"Benchmark", "Beam FIT", "Injection FIT", "Ratio"},
	}
	for _, c := range cs {
		t.Add(c.Workload,
			fmt.Sprintf("%.2f", c.Beam[cls]),
			fmt.Sprintf("%.2f", c.Injection[cls]),
			ratioStr(c.ClassRatio(cls)))
	}
	return t.String()
}

// Fig9 renders the combined SDC + AppCrash comparison.
func Fig9(cs []fit.Comparison) string {
	t := Table{
		Title:  "Figure 9: SDC + Application Crash FIT comparison",
		Header: []string{"Benchmark", "Beam FIT", "Injection FIT", "Ratio"},
	}
	for _, c := range cs {
		t.Add(c.Workload,
			fmt.Sprintf("%.2f", c.Beam[fault.ClassSDC]+c.Beam[fault.ClassAppCrash]),
			fmt.Sprintf("%.2f", c.Injection[fault.ClassSDC]+c.Injection[fault.ClassAppCrash]),
			ratioStr(c.SDCAppRatio()))
	}
	return t.String()
}

// Fig10 renders the aggregate beam-vs-injection overview.
func Fig10(a fit.Aggregate) string {
	t := Table{
		Title:  fmt.Sprintf("Figure 10: average FIT over %d benchmarks, beam vs fault injection", a.Workloads),
		Header: []string{"Accumulation", "Beam FIT", "Injection FIT", "Ratio"},
	}
	t.Add("SDC", fmt.Sprintf("%.2f", a.BeamSDC), fmt.Sprintf("%.2f", a.InjSDC), ratioStr(a.RatioSDC))
	t.Add("SDC+AppCrash", fmt.Sprintf("%.2f", a.BeamSDCApp), fmt.Sprintf("%.2f", a.InjSDCApp), ratioStr(a.RatioSDCApp))
	t.Add("Total", fmt.Sprintf("%.2f", a.BeamTotal), fmt.Sprintf("%.2f", a.InjTotal), ratioStr(a.RatioTotal))
	return t.String()
}

// Significance renders the interval-overlap verdicts behind the Figure
// 6-10 ratios: per workload x class, the beam FIT with its Poisson
// interval, the injection FIT with its Wilson interval, and whether the
// two agree at the chosen confidence. Comparisons without intervals
// (built by fit.Compare rather than fit.CompareCI) are skipped.
func Significance(cs []fit.Comparison, confidence float64) string {
	t := Table{
		Title: fmt.Sprintf("Beam vs injection significance at %.0f%% confidence (interval overlap)",
			100*confidence),
		Header: []string{"Benchmark", "Class", "Beam FIT (Poisson CI)", "Injection FIT (Wilson CI)", "Verdict"},
	}
	rows := 0
	for _, c := range cs {
		for _, cls := range fault.ErrorClasses() {
			v := c.Verdict(cls)
			if v == fit.VerdictNone {
				continue
			}
			rows++
			t.Add(c.Workload, cls.String(),
				fmt.Sprintf("%.2f %s", c.Beam[cls], c.BeamCI[cls]),
				fmt.Sprintf("%.2f %s", c.Injection[cls], c.InjectionCI[cls]),
				string(v))
		}
	}
	if rows == 0 {
		return ""
	}
	return t.String()
}

// CounterDeviation renders the Section IV-D perf-counter comparison
// between the two platform presets.
func CounterDeviation(workload string, zynq, model cpu.Counters) string {
	t := Table{
		Title:  fmt.Sprintf("Section IV-D: counter deviation, %s (board vs model)", workload),
		Header: []string{"Counter", "Board", "Model", "Deviation"},
	}
	for _, name := range cpu.CounterNames {
		zv, err := zynq.Value(name)
		if err != nil {
			continue
		}
		mv, _ := model.Value(name)
		dev := 0.0
		if zv != 0 {
			dev = 100 * (float64(mv) - float64(zv)) / float64(zv)
		} else if mv != 0 {
			dev = 100
		}
		t.Add(name, fmt.Sprintf("%d", zv), fmt.Sprintf("%d", mv), fmt.Sprintf("%+.1f%%", dev))
	}
	return t.String()
}

// ACERow pairs an ACE estimate with a fault-injection measurement for one
// component.
type ACERow struct {
	Comp         fault.Component
	ACEAVF       float64
	InjectionAVF float64
	Margin       float64
}

// ACEComparison renders the ACE-vs-injection study (Section II's
// methodology ladder; the over-estimation bias of Wang et al. [28]).
func ACEComparison(workload string, rows []ACERow) string {
	t := Table{
		Title:  fmt.Sprintf("ACE analysis vs statistical fault injection, %s", workload),
		Header: []string{"Component", "ACE AVF", "Injection AVF", "Margin", "ACE bias"},
	}
	for _, r := range rows {
		bias := "over-estimates"
		if r.ACEAVF < r.InjectionAVF {
			bias = "under-estimates"
		}
		t.Add(fault.PaperNames[r.Comp],
			fmt.Sprintf("%.3f", r.ACEAVF),
			fmt.Sprintf("%.3f", r.InjectionAVF),
			fmt.Sprintf("±%.3f", r.Margin),
			bias)
	}
	return t.String()
}

// StrikeContext renders the injection-observability breakdown: how many
// faults landed in live content, and which outcomes came from kernel-owned
// lines — the Section V mechanism behind System Crashes.
func StrikeContext(res *gefin.Result) string {
	t := Table{
		Title:  "Strike context (cache components): live-content hits and kernel-owned sources",
		Header: []string{"Benchmark", "Component", "live/total", "kernel-struck", "kernel SysCrash", "kernel SDC"},
	}
	cacheComps := map[fault.Component]bool{
		fault.CompL1I: true, fault.CompL1D: true, fault.CompL2: true,
	}
	for _, w := range res.Workloads {
		for _, c := range w.Components {
			if !cacheComps[c.Comp] {
				continue
			}
			valid, kernel := 0, 0
			for _, cls := range fault.Classes() {
				valid += c.ValidStruck[cls]
				kernel += c.KernelStruck[cls]
			}
			t.Add(w.Workload, c.Comp.String(),
				fmt.Sprintf("%d/%d", valid, c.N),
				fmt.Sprintf("%d", kernel),
				fmt.Sprintf("%d/%d", c.KernelStruck[fault.ClassSysCrash], c.Counts[fault.ClassSysCrash]),
				fmt.Sprintf("%d/%d", c.KernelStruck[fault.ClassSDC], c.Counts[fault.ClassSDC]))
		}
	}
	return t.String()
}

func stopTitle(noun string, target, confidence float64, planned, executed, saved int, shadow bool) string {
	mode := ""
	if shadow {
		mode = " [shadow: full plan executed, cuts cross-checked]"
	}
	return fmt.Sprintf("Sequential early stopping: target ±%.3g at %.0f%% confidence — %d of %d %s executed, %d saved%s",
		target, 100*confidence, executed, planned, noun, saved, mode)
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "-"
}

// StopInjection renders what the sequential stopping rule did to an
// injection campaign: per-component cuts, looks taken, and the achieved
// margin at the campaign's plain confidence.
func StopInjection(s *gefin.StopSummary) string {
	t := Table{
		Title:  stopTitle("injections", s.TargetMargin, s.Confidence, s.Planned, s.Executed, s.Saved, s.Shadow),
		Header: []string{"Benchmark", "Component", "Planned", "Executed", "Looks", "Achieved", "Stopped"},
	}
	for _, c := range s.Components {
		t.Add(c.Workload, c.Comp.String(),
			fmt.Sprintf("%d", c.Planned),
			fmt.Sprintf("%d", c.Executed),
			fmt.Sprintf("%d", c.Looks),
			fmt.Sprintf("±%.3f", c.Margin),
			yn(c.Stopped))
	}
	return t.String()
}

// StopBeam renders what the sequential stopping rule did to a beam
// campaign's strike chains.
func StopBeam(s *beam.StopSummary) string {
	t := Table{
		Title:  stopTitle("strikes", s.TargetMargin, s.Confidence, s.Planned, s.Executed, s.Saved, s.Shadow),
		Header: []string{"Benchmark", "Component", "Planned", "Executed", "Looks", "Achieved", "Stopped"},
	}
	for _, c := range s.Chains {
		t.Add(c.Workload, c.Comp.String(),
			fmt.Sprintf("%d", c.Planned),
			fmt.Sprintf("%d", c.Executed),
			fmt.Sprintf("%d", c.Looks),
			fmt.Sprintf("±%.3f", c.Margin),
			yn(c.Stopped))
	}
	return t.String()
}

// ConvergenceTable renders a set of streaming estimator snapshots — a
// live campaign's merged convergence view, or the final estimators of a
// finished run. A zero target leaves the "Met" column unjudged.
func ConvergenceTable(title string, snaps []obs.ConvSnapshot, target float64) string {
	header := []string{"Benchmark", "Component", "Class", "Est", "Margin", "k/n", "Planned", "Look"}
	if target > 0 {
		header = append(header, "Met")
	}
	t := Table{Title: title, Header: header}
	for _, s := range snaps {
		row := []string{
			s.Workload, s.Comp.String(), s.Class.String(),
			fmt.Sprintf("%.3f", s.Est),
			fmt.Sprintf("±%.3f", s.Margin),
			fmt.Sprintf("%d/%d", s.K, s.N),
			fmt.Sprintf("%d", s.Planned),
			fmt.Sprintf("%d", s.Look),
		}
		if target > 0 {
			met := yn(s.Met)
			if s.Stopped {
				met = "stopped"
			}
			row = append(row, met)
		}
		t.Add(row...)
	}
	return t.String()
}
