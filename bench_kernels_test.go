// Kernel benchmarks for the dense-ID/bitset substrate: the pointer
// worklist, SHBG build+closure, racy-pair intersection, and per-pair
// refutation, each on a synthetic large app (hundreds of actions,
// >1k accesses) where the per-app inner loops dominate — the costs the
// paper reports driving SIERRA's 40-minute median runtime (§6).
//
//	go test -bench 'BenchmarkKernel' -benchmem .
//
// BENCH_kernels.json records the before/after ns/op and allocs/op of
// the map-set → bitset switch.
package sierra

import (
	"fmt"
	"runtime"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/callgraph"
	"sierra/internal/corpus"
	"sierra/internal/frontend"
	"sierra/internal/harness"
	"sierra/internal/ir"
	"sierra/internal/pointer"
	"sierra/internal/race"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// synthLargeApp generates the macro-benchmark workload: ≥64 actions and
// ≥1k accesses (the probe sizes land at ~231 actions / ~1.4k accesses).
func synthLargeApp() *apk.App {
	app, _ := corpus.Generate("SynthLarge", "1M", corpus.Knobs{
		Activities: 8, AsyncTotal: 24, AsyncFields: 3,
		GuardTotal: 12, GuardFields: 2,
		ImplicitTotal: 8, ImplicitFields: 2,
		TrapOnlyTotal: 8, FillerTotal: 24,
		WithReceiver: true, WithService: true, WithHandlerThread: true,
	})
	return app
}

// synthAnalyzed runs the pipeline front half once (shared fixture for
// the downstream kernels).
func synthAnalyzed(b *testing.B) (*actions.Registry, *pointer.Result) {
	b.Helper()
	app := synthLargeApp()
	hs := harness.Generate(app)
	return actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
}

// BenchmarkKernelPointerWorklist measures the points-to fixpoint
// (harness generation + worklist) on the synthetic large app — the
// pts/fpts/spts propagation loops.
func BenchmarkKernelPointerWorklist(b *testing.B) {
	app := synthLargeApp()
	hs := harness.Generate(app)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	}
}

// BenchmarkKernelPointerDelta compares the two points-to fixpoint
// implementations head to head on the same workload: the exhaustive
// reference solver against the difference-propagation worklist (the
// default; see -pta-solver). Both produce bit-for-bit identical
// results, so any gap is pure re-computation avoided.
func BenchmarkKernelPointerDelta(b *testing.B) {
	app := synthLargeApp()
	hs := harness.Generate(app)
	for _, solver := range []pointer.Solver{pointer.SolverExhaustive, pointer.SolverDelta} {
		b.Run("solver="+string(solver), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				actions.AnalyzeSolver(nil, app, hs, pointer.ActionSensitivePolicy{K: 2}, solver, 0, nil)
			}
		})
	}
}

// BenchmarkKernelPointerParallel measures the SCC-partitioned parallel
// delta solver at increasing worker counts. jobs=1 is the exact legacy
// delta path; any count produces a bit-identical Result, so the gap is
// pure wall clock. The jobs list tracks GOMAXPROCS so the benchdiff
// -cpu lane can select a matching sub-benchmark per core count.
func BenchmarkKernelPointerParallel(b *testing.B) {
	app := synthLargeApp()
	hs := harness.Generate(app)
	for _, jobs := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				actions.AnalyzeSolver(nil, app, hs, pointer.ActionSensitivePolicy{K: 2}, pointer.SolverDelta, jobs, nil)
			}
		})
	}
}

// BenchmarkKernelSHBGBuild measures full SHBG construction: rules 1–5
// plus the rule-6/7 closure iteration.
func BenchmarkKernelSHBGBuild(b *testing.B) {
	reg, res := synthAnalyzed(b)
	b.ReportAllocs()
	b.ResetTimer()
	var g *shbg.Graph
	for i := 0; i < b.N; i++ {
		g = shbg.Build(reg, res, shbg.Options{})
	}
	b.ReportMetric(float64(g.NumActions()), "actions")
	b.ReportMetric(float64(g.NumEdges()), "hbEdges")
}

// BenchmarkKernelSHBGClosure isolates the closure-dominated
// configuration: every pairwise-dominance rule disabled except
// invocation and inter-action, so the rule-6/7 fixpoint (the n³ part)
// is the measured work.
func BenchmarkKernelSHBGClosure(b *testing.B) {
	reg, res := synthAnalyzed(b)
	disable := map[shbg.Rule]bool{
		shbg.RuleIntraProc: true, shbg.RuleInterProc: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shbg.Build(reg, res, shbg.Options{Disable: disable})
	}
}

// BenchmarkKernelSHBGClosureParallel measures the block-parallel
// rule-6/7 closure at increasing worker counts on the closure-dominated
// configuration. jobs=1 is the exact sequential closure; the graph is
// bit-identical at any count (see shbg.Options.Jobs).
func BenchmarkKernelSHBGClosureParallel(b *testing.B) {
	reg, res := synthAnalyzed(b)
	disable := map[shbg.Rule]bool{
		shbg.RuleIntraProc: true, shbg.RuleInterProc: true,
	}
	for _, jobs := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shbg.Build(reg, res, shbg.Options{Disable: disable, Jobs: jobs})
			}
		})
	}
}

// BenchmarkKernelRacyPairs measures the same-field intersection loop
// (alias word-AND + HB bit tests + dedup) over the collected accesses.
func BenchmarkKernelRacyPairs(b *testing.B) {
	reg, res := synthAnalyzed(b)
	g := shbg.Build(reg, res, shbg.Options{})
	accs := race.CollectAccesses(reg, res)
	b.ReportAllocs()
	b.ResetTimer()
	var pairs []race.Pair
	for i := 0; i < b.N; i++ {
		pairs = race.RacyPairs(reg, g, accs)
	}
	b.ReportMetric(float64(len(accs)), "accesses")
	b.ReportMetric(float64(len(pairs)), "pairs")
}

// BenchmarkKernelRefutation measures per-pair symbolic refutation of
// every candidate, sequentially (the fresh-refuter cost structure the
// parallel pool distributes).
func BenchmarkKernelRefutation(b *testing.B) {
	reg, res := synthAnalyzed(b)
	g := shbg.Build(reg, res, shbg.Options{})
	pairs := race.RacyPairs(reg, g, race.CollectAccesses(reg, res))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := symexec.NewRefuter(reg, res, symexec.Config{})
		for _, p := range pairs {
			ref.Check(p)
		}
	}
	b.ReportMetric(float64(len(pairs)), "pairs")
}

// BenchmarkKernelRefutationParallel measures CheckAll at increasing
// worker counts: jobs=1 is the legacy shared-memo loop, jobs>1 the
// per-pair fresh-memo pool (whose verdicts stay deterministic at any
// width).
func BenchmarkKernelRefutationParallel(b *testing.B) {
	reg, res := synthAnalyzed(b)
	g := shbg.Build(reg, res, shbg.Options{})
	pairs := race.RacyPairs(reg, g, race.CollectAccesses(reg, res))
	for _, jobs := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				symexec.CheckAll(reg, res, symexec.Config{Jobs: jobs}, pairs)
			}
			b.ReportMetric(float64(len(pairs)), "pairs")
		})
	}
}

// nprNews generates the NPRNews Table-2 row, the app whose harness
// discovery dominated Table-2 analysis time before the class-hierarchy
// index.
func nprNews(b *testing.B) *apk.App {
	b.Helper()
	row, ok := corpus.RowByName("NPRNews")
	if !ok {
		b.Fatal("no NPRNews row")
	}
	app, _ := corpus.NamedApp(row)
	return app
}

// BenchmarkKernelHarness measures harness generation (listener
// discovery over a growing CHA, plus the synthetic entrypoints) on
// NPRNews. Generate adds classes to the program, so each iteration
// generates a fresh app outside the timer.
func BenchmarkKernelHarness(b *testing.B) {
	b.ReportAllocs()
	var hs []*harness.Harness
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		app := nprNews(b)
		b.StartTimer()
		hs = harness.Generate(app)
	}
	b.ReportMetric(float64(len(hs)), "harnesses")
}

// BenchmarkKernelCHA measures building the CHA call graph from every
// NPRNews activity's lifecycle callbacks.
func BenchmarkKernelCHA(b *testing.B) {
	app := nprNews(b)
	var entries []*ir.Method
	for _, act := range app.Manifest.Activities {
		for _, lc := range []string{
			frontend.OnCreate, frontend.OnStart, frontend.OnResume,
			frontend.OnPause, frontend.OnStop, frontend.OnRestart, frontend.OnDestroy,
		} {
			if m := app.Program.ResolveMethod(act.Class, lc); m != nil {
				entries = append(entries, m)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var g *callgraph.CHA
	for i := 0; i < b.N; i++ {
		g = callgraph.BuildCHA(app.Program, entries)
	}
	b.ReportMetric(float64(len(g.ReachableMethods())), "reachable")
}
