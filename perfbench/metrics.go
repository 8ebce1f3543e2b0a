package main

import (
	"math"
	"runtime"
	"time"
)

// setupRepeats is how many times a run pays its set-up; setup_s is the
// median, because a single sub-second process is noisy.
const setupRepeats = 3

// layerMetrics lists every per-layer metric with its unit. Each traced
// run prints all of them; a layer the workload does not exercise (the
// daemon's, on the one-shot and batch workloads) reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"appfile.cpu_ms", "ms"}, {"harness.cpu_ms", "ms"}, {"actions.cpu_ms", "ms"},
	{"shbg.cpu_ms", "ms"}, {"race.cpu_ms", "ms"}, {"symexec.cpu_ms", "ms"}, {"report.cpu_ms", "ms"},
	{"appfile.alloc_mb", "MB"}, {"harness.alloc_mb", "MB"}, {"actions.alloc_mb", "MB"},
	{"harness.share", "ratio"}, {"actions.share", "ratio"}, {"race.share", "ratio"}, {"symexec.share", "ratio"},
	{"harness.harnesses", "count"}, {"actions.actions", "count"}, {"shbg.hb_edges", "count"},
	{"race.racy_pairs", "count"}, {"report.reports", "count"}, {"symexec.refuted_frac", "ratio"},
	{"gc.cycles_per_app", "count"}, {"gc.cpu_share", "ratio"},
	{"trace.cpu_ratio", "ratio"}, {"batch.cpu_util", "ratio"},
	{"serve.submit_ms_p50", "ms"}, {"serve.report_ms_p50", "ms"}, {"serve.report_ms_p90", "ms"},
	{"serve.store_hit_share", "ratio"},
	{"incremental.tier1_share", "ratio"}, {"incremental.tier2_share", "ratio"},
	{"incremental.cold_share", "ratio"}, {"incremental.rerefuted_frac", "ratio"},
	{"host.steal_frac", "ratio"}, {"host.apps_per_s_wall", "1/s"},
}

// units is how many units of work a run measures: --seconds divided by
// the unit's nominal wall time on the reference host (2 vCPUs), and at
// least one. The work is fixed by --seconds rather than by a clock, so
// hypervisor steal can stretch a run but never change what it measures.
func (b *bench) units(nominal time.Duration) int {
	return max(1, int(math.Round(b.seconds/nominal.Seconds())))
}

// measure runs unit(0) ... unit(n-1) and returns the wall time they took.
func (b *bench) measure(n int, unit func(i int) error) (time.Duration, error) {
	host := readHostCPU()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := unit(i); err != nil {
			return 0, err
		}
	}
	wall := time.Since(start)
	b.setLayer("host.steal_frac", "ratio", stealSince(host))
	return wall, nil
}

// e2eRun is what the timed part of a workload measured.
type e2eRun struct {
	// setupCPU holds the user CPU seconds of each set-up. Set-up writes
	// thousands of fresh files or heap pages, and on the reference VM the
	// kernel's system time for that is bimodal (0.1 s or 1.7 s for the
	// same 16 MB corpus), set by the host's free-page reporting rather
	// than by the program; so set-up counts user CPU only.
	setupCPU []float64
	cpu      time.Duration // analyzing processes, timed part only
	apps     int           // apps or revisions completed in the timed part
	unitCPU  []float64     // CPU ms per app of each unit (each process, on table2)
	peakRSS  []float64     // the largest ru_maxrss of each unit, bytes
	wall     time.Duration
}

// summarize sets the end-to-end metrics, and the per-layer ones the
// untraced run supplies.
func (b *bench) summarize(r e2eRun) {
	b.setE2E("setup_s", "s", median(r.setupCPU))
	b.setE2E("cpu_ms_per_app", "ms", perAppMS(r.cpu, r.apps))
	b.setE2E("app_cpu_ms_iqm", "ms", interquartileMean(r.unitCPU))
	b.setE2E("peak_rss_mb", "MB", median(r.peakRSS)/1e6)
	b.setE2E("ok_frac", "ratio", 1-ratio(float64(b.failed), float64(b.attempted)))
	b.setLayer("host.apps_per_s_wall", "1/s", ratio(float64(r.apps), r.wall.Seconds()))
	b.setLayer("batch.cpu_util", "ratio", ratio(r.cpu.Seconds(), r.wall.Seconds()*float64(runtime.NumCPU())))
}

// fillLayers gives every per-layer metric the workload did not set a
// zero value, so each traced run reports the full set.
func (b *bench) fillLayers() {
	for _, m := range layerMetrics {
		if _, ok := b.layer[m.name]; !ok {
			b.setLayer(m.name, m.unit, 0)
		}
	}
}
