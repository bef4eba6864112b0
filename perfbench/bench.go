package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one named benchmark workload: its untraced closed loop
// (end-to-end metrics) and its traced layer-by-layer run (per-layer
// metrics). BENCHMARK.json and README.md say why each was chosen.
type workloadDef struct {
	untraced func(*session) error
	traced   func(*session) error
}

var workloads = map[string]workloadDef{
	"inject-accel": {
		untraced: injectAccel,
		traced:   injectAccelTraced,
	},
	"inject-service": {
		untraced: injectService,
		traced:   injectServiceTraced,
	},
	"beam-live": {
		untraced: beamLive,
		traced:   beamLiveTraced,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// session accumulates one run's checks and metrics.
type session struct {
	opts      options
	table     *digestTable
	attempted int
	failed    int
	// unrecorded counts campaigns checked for structure only: no digest
	// was recorded for their seed.
	unrecorded int
	// broken records a failed whole-run check (a replay that does not
	// reproduce its campaign, an accounting that does not reconcile).
	broken  []string
	metrics map[string]metric
}

// set records a metric.
func (b *session) set(name string, value float64, unit string) {
	if b.metrics == nil {
		b.metrics = make(map[string]metric)
	}
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// observe counts one campaign and prints its digest, so the digests of
// a seed without recorded ones can be checked against a plain-engine
// run (-record-digests).
func (b *session) observe(kind string, seed int64, v verdict) {
	b.attempted++
	status := "ok"
	if !v.recorded {
		status = "unrecorded"
		b.unrecorded++
	}
	if v.err != nil {
		b.failed++
		status = "FAILED: " + v.err.Error()
	}
	fmt.Printf("campaign %s seed=%d sha256=%s %s\n", kind, seed, v.digest, status)
}

// fail records a failed whole-run check.
func (b *session) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.broken = append(b.broken, msg)
	fmt.Println("CHECK FAILED:", msg)
}

func (b *session) result() result {
	return result{
		Correct:   b.failed == 0 && len(b.broken) == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed + len(b.broken),
		Metrics:   b.metrics,
	}
}

// loopHooks adapt one workload to the closed loop.
type loopHooks struct {
	kind string
	// setup builds what the workload needs before its first campaign
	// (rep counts set-up repetitions); it may be nil.
	setup func(rep int) error
	// teardown releases what setup built; it may be nil.
	teardown func()
	// recycleEvery, when positive, tears the workload down and sets it
	// up again, untimed, before every recycleEvery-th timed campaign.
	recycleEvery int
	// campaign runs one campaign — a set-up's warm-up campaign or a timed
	// one — to its Result in hand and checks it, returning its
	// simulated-run count (meaningful when v.returned).
	campaign func(seed int64, warmup bool) (sims int, v verdict)
}

// closedLoop sets the workload up SetupRepeats times — each set-up ends
// with a warm-up campaign — then submits campaigns one after another,
// each only after the previous Result arrived, for the run's duration,
// and records the end-to-end metrics. Every timed span lies between two
// host-speed calibrations (hostspeed.go) and is reported scaled to the
// reference host; the per-campaign lines also print the measured times.
func (b *session) closedLoop(h loopHooks) error {
	var setups, rawSetups, cals []float64
	var cal float64
	for rep := 0; rep < SetupRepeats; rep++ {
		if rep > 0 && h.teardown != nil {
			h.teardown()
		}
		runtime.GC()
		if rep == 0 {
			cal = calibrate(b.opts.nproc)
		}
		t0 := time.Now()
		if h.setup != nil {
			if err := h.setup(rep); err != nil {
				return err
			}
		}
		seed := warmupSeed(rep)
		_, v := h.campaign(seed, true)
		raw := time.Since(t0).Seconds()
		next := calibrate(b.opts.nproc)
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*hostScale(cal, next))
		cals = append(cals, cal)
		cal = next
		b.observe(h.kind+"/setup", seed, v)
	}
	if h.teardown != nil {
		defer h.teardown()
	}
	var walls, cpus, sims, rawWalls, rawCPUs []float64
	loopStart := time.Now()
	for i := 0; i == 0 || time.Since(loopStart).Seconds() < b.opts.seconds; i++ {
		if h.recycleEvery > 0 && i > 0 && i%h.recycleEvery == 0 {
			h.teardown()
			if err := h.setup(SetupRepeats); err != nil {
				return err
			}
		}
		// Every campaign starts from a collected heap, so peak RSS follows
		// live memory rather than where the collector's cycles fell.
		runtime.GC()
		seed := campaignSeed(b.opts.seed, i)
		cpu0 := cpuSeconds()
		t0 := time.Now()
		n, v := h.campaign(seed, false)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		next := calibrate(b.opts.nproc)
		scale := hostScale(cal, next)
		cals = append(cals, cal)
		cal = next
		b.observe(h.kind, seed, v)
		fmt.Printf("  wall %.4f s, cpu %.4f s measured; host scale %.3f; simulated %d\n", wall, cpu, scale, n)
		// A campaign that returned a Result is timed whether or not it
		// passed its checks, so which campaigns make up the medians does not
		// depend on correctness; failed ones count in failed.
		if v.returned {
			walls = append(walls, wall*scale)
			cpus = append(cpus, cpu*scale)
			rawWalls = append(rawWalls, wall)
			rawCPUs = append(rawCPUs, cpu)
			sims = append(sims, float64(n))
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("%s: no campaign completed", h.kind)
	}
	b.set("campaign_s", median(walls), "s")
	b.set("campaign_cpu_s", median(cpus), "s")
	b.set("setup_s", median(setups), "s")
	b.set("peak_rss_mb", peakRSSMB(), "MB")
	b.set("simulated_runs", median(sims), "count")
	fmt.Printf("campaign_s: n=%d median %.4f", len(walls), median(walls))
	if p, v, ok := tailPercentile(walls); ok {
		fmt.Printf(", p%d %.4f (10 samples beyond)", p, v)
	}
	fmt.Printf(" (measured %.4f)\ncampaign_cpu_s: median %.4f (measured %.4f); setup_s: median %.4f (measured %.4f); peak_rss_mb %.1f; simulated_runs median %.0f\n",
		median(rawWalls), median(cpus), median(rawCPUs), median(setups), median(rawSetups), peakRSSMB(), median(sims))
	fmt.Printf("host calibration: median %.2f ms per thread, reference %.2f ms\n", median(cals)*1e3, calibRefSeconds*1e3)
	fmt.Printf("checked: %d campaigns, %d failed, %d without a recorded digest (structure only)\n",
		b.attempted, b.failed, b.unrecorded)
	return nil
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value (mean of the two middle values for an
// even count); zero for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile by linear interpolation between order
// statistics; zero for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest whole percentile with at least ten
// samples above it, and its value; ok is false below 20 samples, where
// that percentile would not exceed the median.
func tailPercentile(xs []float64) (p int, v float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p = (100 * (n - 10)) / n
	return p, s[n-10-1], true
}
