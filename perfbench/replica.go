package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/harness"
	"sierra/internal/pointer"
	"sierra/internal/race"
	"sierra/internal/report"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// replicaApp is one app for the traced replica, with the surviving
// report count the untraced CLI run produced for it.
type replicaApp struct {
	name  string
	raw   []byte
	races int
}

// layers are the analysis layers the replica times, in pipeline order.
var layers = []string{"appfile", "harness", "actions", "shbg", "race", "symexec", "report"}

// runtime/metrics samples the replica reads around each app.
var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() [3]float64 {
	metrics.Read(rtSamples)
	var v [3]float64
	for i, s := range rtSamples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return v
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// replicate analyzes apps in this process, calling each layer's
// narrowest public entry point with zero-valued options, and sets the
// per-layer metrics. Each layer's CPU is the RUSAGE_SELF delta around
// its call, so garbage collection is charged to the layer that
// allocated. Every app's surviving-report count must equal the
// untraced run's (replica parity), so the per-layer numbers describe
// the work the gated run did. e2ePerAppMS is the untraced run's CPU per
// app, the base of trace.cpu_ratio.
func (b *bench) replicate(apps []replicaApp, e2ePerAppMS float64) {
	cpu := map[string]time.Duration{}
	alloc := map[string]float64{}
	var harnesses, nActions, hbEdges, racyPairs, reports, refuted int

	runtime.GC()
	rt0 := readRuntime()
	for _, a := range apps {
		step := func(layer string, f func()) {
			c0, m0 := selfCPU(), readRuntime()
			f()
			cpu[layer] += selfCPU() - c0
			alloc[layer] += readRuntime()[0] - m0[0]
		}
		var (
			err  error
			app  *apk.App
			hs   []*harness.Harness
			reg  *actions.Registry
			pta  *pointer.Result
			g    *shbg.Graph
			prs  []race.Pair
			surv []race.Pair
			vs   []symexec.Verdict
			reps []report.Report
		)
		step("appfile", func() { app, err = appfile.Read(bytes.NewReader(a.raw)) })
		if err != nil {
			b.check(false, "replica %s: %v", a.name, err)
			continue
		}
		step("harness", func() { hs = harness.Generate(app) })
		step("actions", func() { reg, pta = actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2}) })
		step("shbg", func() { g = shbg.Build(reg, pta, shbg.Options{}) })
		step("race", func() { prs = race.RacyPairs(reg, g, race.CollectAccesses(reg, pta)) })
		step("symexec", func() {
			all, _ := symexec.CheckAll(reg, pta, symexec.Config{}, prs)
			for i, v := range all {
				if v.TruePositive {
					surv = append(surv, prs[i])
					vs = append(vs, v)
				}
			}
		})
		step("report", func() { reps = report.Rank(app.Program, surv, vs) })

		harnesses += len(hs)
		nActions += reg.NumActions()
		hbEdges += g.NumEdges()
		racyPairs += len(prs)
		reports += len(reps)
		refuted += len(prs) - len(surv)
		b.check(len(reps) == a.races, "replica parity %s: %d reports in-process, %d from the CLI", a.name, len(reps), a.races)
	}
	rt1 := readRuntime()

	n := float64(len(apps))
	var total time.Duration
	for _, l := range layers {
		total += cpu[l]
		b.setLayer(l+".cpu_ms", "ms", ratio(float64(cpu[l].Microseconds())/1e3, n))
	}
	for _, l := range []string{"appfile", "harness", "actions"} {
		b.setLayer(l+".alloc_mb", "MB", ratio(alloc[l]/1e6, n))
	}
	for _, l := range []string{"harness", "actions", "race", "symexec"} {
		b.setLayer(l+".share", "ratio", ratio(float64(cpu[l]), float64(total)))
	}
	b.setLayer("harness.harnesses", "count", float64(harnesses))
	b.setLayer("actions.actions", "count", float64(nActions))
	b.setLayer("shbg.hb_edges", "count", float64(hbEdges))
	b.setLayer("race.racy_pairs", "count", float64(racyPairs))
	b.setLayer("report.reports", "count", float64(reports))
	b.setLayer("symexec.refuted_frac", "ratio", ratio(float64(refuted), float64(racyPairs)))
	b.setLayer("gc.cycles_per_app", "count", ratio(rt1[1]-rt0[1], n))
	b.setLayer("gc.cpu_share", "ratio", ratio(rt1[2]-rt0[2], total.Seconds()))
	b.setLayer("trace.cpu_ratio", "ratio", ratio(ratio(float64(total.Microseconds())/1e3, n), e2ePerAppMS))
	fmt.Fprintf(os.Stderr, "perfbench: replica analyzed %d apps in %.2f CPU-s\n", len(apps), total.Seconds())
}
