// Command sierra runs the static event-race analysis on one app and
// prints a ranked race report — the tool interface described in the
// paper's §3.1 (Fig 3).
//
// Usage:
//
//	sierra -app OpenSudoku            # a named 20-app-dataset member
//	sierra -fdroid 17                 # a generated 174-app-dataset member
//	sierra -file path/to/app.app      # a textual app model
//	sierra -batch 'models/*.app'      # a whole corpus, concurrently
//	sierra -stream corpus.cfg         # generate + analyze fused, no disk corpus
//	sierra -app K-9Mail -policy hybrid -compare -v
//	sierra -app OpenSudoku -stats out.json      # machine-readable effort snapshot
//	sierra -app OpenSudoku -pprof-cpu cpu.out   # CPU profile of the run
//	sierra -batch 'models/*.app' -events run.jsonl -debug-addr :6060
//
// Batch mode fans the matched .app files out across -jobs workers with
// per-file deadlines (-job-timeout), panic isolation, and an optional
// digest-keyed result cache (-cache-dir); one summary line per file is
// printed in glob order regardless of completion order.
//
// Stream mode (-stream) reads a scenario config (see cmd/corpusgen
// -list-scenarios and README.md "Generating corpora at scale"), fuses
// -gen-jobs generation workers into the same batch engine through a
// bounded prefetch queue, and produces verdicts byte-identical to
// materializing the corpus and running -batch over it — with peak
// memory bounded by the queue depth times the largest app, not by the
// corpus size.
//
// Live telemetry (see README.md "Live telemetry"): -events streams
// sierra-events/1 JSONL flight-recorder events (run config, per-job
// start/end, verdicts) and -debug-addr serves /metrics, /progress,
// /events, /healthz, and /debug/pprof while the run executes. On
// SIGINT/SIGTERM or a panic the last events in the in-memory ring are
// dumped to stderr before the process winds down.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/obs"
	"sierra/internal/obs/eventlog"
	"sierra/internal/obs/export"
	"sierra/internal/pointer"
	"sierra/internal/report"
	"sierra/internal/serve"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
	"sierra/internal/verify"
)

func main() {
	// Subcommands dispatch before flag parsing; everything else is the
	// classic one-shot CLI.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(runServe(os.Args[2:]))
	}

	var (
		appName        = flag.String("app", "", "named dataset app (see -list)")
		fdroid         = flag.Int("fdroid", -1, "generated dataset app index (0..173)")
		file           = flag.String("file", "", "textual .app file to analyze")
		batchGlob      = flag.String("batch", "", "analyze every .app file matching this glob on a worker pool")
		streamCfg      = flag.String("stream", "", "generate a corpus from this scenario config and analyze it on the fly, never touching disk")
		genJobs        = flag.Int("gen-jobs", 0, "generation worker count in -stream mode (0 = GOMAXPROCS; the admitted stream is identical at any count)")
		verdicts       = flag.String("verdicts", "", "write the deterministic TSV verdict table of a -batch/-stream run to this file")
		jobs           = flag.Int("jobs", 0, "batch worker count (0 = GOMAXPROCS)")
		jobTimeout     = flag.Duration("job-timeout", 0, "per-file analysis deadline in batch mode (0 = none)")
		cacheDir       = flag.String("cache-dir", "", "cache batch results in this directory, keyed by file digest + options")
		policy         = flag.String("policy", "as", "context policy: as | hybrid | 2obj | 2cfa | insensitive")
		ptaSolver      = flag.String("pta-solver", "delta", "points-to fixpoint solver: delta | exhaustive (identical results; delta is faster)")
		compare        = flag.Bool("compare", false, "also report racy pairs without action sensitivity")
		noRefute       = flag.Bool("no-refute", false, "skip symbolic refutation")
		refuteMaxPaths = flag.Int("refute-max-paths", 5000, "refutation path budget per query (the paper's 5,000)")
		refuteMaxDepth = flag.Int("refute-max-depth", 6, "refutation call-inlining depth bound (the paper's 6)")
		refuteJobs     = flag.Int("refute-jobs", 0, "per-pair refutation workers within one app (0 = GOMAXPROCS, 1 = sequential shared-memo refuter; verdicts are identical at any count)")
		ptaJobs        = flag.Int("pta-jobs", 0, "SCC-partitioned points-to solver workers (0 = GOMAXPROCS, 1 = sequential fixpoint; results are identical at any count)")
		shbgJobs       = flag.Int("shbg-jobs", 0, "block-parallel SHBG closure workers (0 = GOMAXPROCS, 1 = sequential closure; the graph is identical at any count)")
		list           = flag.Bool("list", false, "list named dataset apps and exit")
		verbose        = flag.Bool("v", false, "print every report plus the observability breakdown")
		verifyN        = flag.Int("verify", 0, "dynamically confirm the top N reports via schedule search (§6.4)")
		stats          = flag.String("stats", "", "write the observability snapshot (spans + counters) as JSON to this file")
		events         = flag.String("events", "", "stream sierra-events/1 flight-recorder events as JSONL to this file")
		debugAddr      = flag.String("debug-addr", "", "serve /metrics, /progress, /events, /healthz, and /debug/pprof on this address while the run executes")
		pprofCPU       = flag.String("pprof-cpu", "", "write a CPU profile of the analysis to this file")
		pprofMem       = flag.String("pprof-mem", "", "write a heap profile after the analysis to this file")
		reportJSON     = flag.String("report-json", "", "write the canonical sierra-report/1 document to this file ('-' = stdout); byte-identical to what `sierra serve` stores for the same bytes and config")
	)
	flag.Parse()

	if *list {
		for _, n := range corpus.Names() {
			fmt.Println(n)
		}
		return
	}

	// Input selectors are mutually exclusive; silently preferring one
	// over another hides typos, so conflicts are an error up front.
	var given []string
	if *appName != "" {
		given = append(given, "-app")
	}
	if *fdroid >= 0 {
		given = append(given, "-fdroid")
	}
	if *file != "" {
		given = append(given, "-file")
	}
	if *batchGlob != "" {
		given = append(given, "-batch")
	}
	if *streamCfg != "" {
		given = append(given, "-stream")
	}
	if len(given) > 1 {
		fmt.Fprintf(os.Stderr, "sierra: %s are mutually exclusive; pick exactly one input selector\n",
			strings.Join(given, " and "))
		os.Exit(2)
	}

	pol, err := parsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sierra:", err)
		os.Exit(1)
	}
	solver, err := pointer.ParseSolver(*ptaSolver)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sierra: -pta-solver:", err)
		os.Exit(1)
	}

	// Worker counts default to the machine (0 = GOMAXPROCS). Every
	// parallel kernel is bit-for-bit deterministic, so the counts affect
	// only wall clock, never results.
	*refuteJobs = resolveJobs(*refuteJobs)
	*ptaJobs = resolveJobs(*ptaJobs)
	*shbgJobs = resolveJobs(*shbgJobs)

	if *batchGlob != "" || *streamCfg != "" {
		code := runBatch(batchConfig{
			glob:       *batchGlob,
			streamCfg:  *streamCfg,
			genJobs:    resolveJobs(*genJobs),
			jobs:       *jobs,
			timeout:    *jobTimeout,
			cacheDir:   *cacheDir,
			policy:     pol,
			policyID:   *policy,
			solver:     solver,
			compare:    *compare,
			noRefute:   *noRefute,
			maxPaths:   *refuteMaxPaths,
			maxDepth:   *refuteMaxDepth,
			refuteJobs: *refuteJobs,
			ptaJobs:    *ptaJobs,
			shbgJobs:   *shbgJobs,
			stats:      *stats,
			events:     *events,
			debugAddr:  *debugAddr,
			verdicts:   *verdicts,
		})
		os.Exit(code)
	}

	app, err := loadApp(*appName, *fdroid, *file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sierra:", err)
		os.Exit(1)
	}

	// The report digest keys the canonical document exactly as `sierra
	// serve` would key this submission: the raw file bytes for -file,
	// the canonical rendering otherwise. Computed up front — harness
	// generation extends the program during analysis.
	var reportDigest string
	if *reportJSON != "" {
		raw, err := os.ReadFile(*file)
		if *file == "" {
			raw, err = appfile.Bytes(app)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sierra: -report-json:", err)
			os.Exit(1)
		}
		reportDigest = batch.RawDigest(raw)
	}

	if *pprofCPU != "" {
		f, err := os.Create(*pprofCPU)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sierra:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sierra:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// Observability is on whenever someone will look at it (-stats, -v,
	// or a live -debug-addr scrape); otherwise the pipeline runs with a
	// nil trace at zero cost.
	var tr *obs.Trace
	if *stats != "" || *verbose || *debugAddr != "" {
		tr = obs.New("sierra:" + app.Name)
	}

	// Flight recorder: the ring exists whenever anyone can look at it
	// (-events mirrors it to a JSONL file, -debug-addr serves its tail);
	// on SIGINT/SIGTERM or a panic its tail is dumped to stderr.
	var rec *eventlog.Recorder
	if *events != "" || *debugAddr != "" {
		var sink io.Writer
		if *events != "" {
			f, err := os.Create(*events)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sierra: -events:", err)
				os.Exit(1)
			}
			defer f.Close()
			sink = f
		}
		rec = eventlog.New(sink, eventlog.DefaultRingCap)
	}
	defer rec.DumpOnPanic(os.Stderr)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if rec != nil {
		stop := rec.NotifySignals(os.Stderr, cancel)
		defer stop()
	}
	if *debugAddr != "" {
		srv, err := export.Serve(*debugAddr, export.Options{Trace: tr, Events: rec})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sierra: -debug-addr:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sierra: debug server on http://%s\n", srv.Addr())
	}

	rec.Emit(eventlog.Event{Type: "run_start", Job: app.Name, Fields: map[string]any{
		"policy":      *policy,
		"solver":      string(solver),
		"compare":     *compare,
		"refute":      !*noRefute,
		"max_paths":   *refuteMaxPaths,
		"max_depth":   *refuteMaxDepth,
		"refute_jobs": *refuteJobs,
		"pta_jobs":    *ptaJobs,
		"shbg_jobs":   *shbgJobs,
	}})

	res := core.AnalyzeContext(ctx, app, core.Options{
		Policy:          pol,
		CompareContexts: *compare,
		SkipRefutation:  *noRefute,
		Refuter:         symexec.Config{MaxPaths: *refuteMaxPaths, MaxDepth: *refuteMaxDepth, Jobs: *refuteJobs},
		SHBG:            shbg.Options{Jobs: *shbgJobs},
		PTASolver:       solver,
		PTAJobs:         *ptaJobs,
		Obs:             tr,
	})

	if rec != nil {
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{"harness", res.Timing.Harness},
			{"cg_pa", res.Timing.CGPA},
			{"hbg", res.Timing.HBG},
			{"pairs", res.Timing.Pairs},
			{"compare", res.Timing.Compare},
			{"refutation", res.Timing.Refutation},
		} {
			rec.Emit(eventlog.Event{Type: "stage", Job: app.Name,
				DurMS:  float64(st.d) / 1e6,
				Fields: map[string]any{"stage": st.name}})
		}
		rec.Emit(eventlog.Event{Type: "run_end", Job: app.Name,
			DurMS: float64(res.Timing.Total) / 1e6,
			Fields: map[string]any{
				"harnesses":   res.NumHarnesses(),
				"actions":     res.NumActions(),
				"hb_edges":    res.HBEdges(),
				"racy_pairs":  len(res.RacyPairs),
				"races":       res.TrueRaces(),
				"interrupted": res.Interrupted,
			}})
		if err := rec.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "sierra: flushing -events:", err)
			os.Exit(1)
		}
	}

	if *reportJSON != "" {
		if res.Interrupted {
			fmt.Fprintf(os.Stderr, "sierra: -report-json: analysis interrupted at %q; no report written\n", res.InterruptedStage)
			os.Exit(1)
		}
		doc := serve.RenderReport(reportDigest, res)
		if *reportJSON == "-" {
			os.Stdout.Write(doc)
		} else if err := os.WriteFile(*reportJSON, doc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sierra: -report-json:", err)
			os.Exit(1)
		}
	}

	if *stats != "" {
		raw, err := tr.Snapshot().JSON()
		if err == nil {
			err = os.WriteFile(*stats, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sierra: writing -stats:", err)
			os.Exit(1)
		}
	}
	if *pprofMem != "" {
		f, err := os.Create(*pprofMem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sierra:", err)
			os.Exit(1)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sierra:", err)
			os.Exit(1)
		}
		f.Close()
	}

	// With the canonical document on stdout, the human summary would
	// corrupt it; stdout carries exactly the report bytes.
	if *reportJSON == "-" {
		return
	}

	fmt.Printf("app            %s\n", app.Name)
	fmt.Printf("policy         %s\n", pol.Name())
	fmt.Printf("harnesses      %d\n", res.NumHarnesses())
	fmt.Printf("actions        %d\n", res.NumActions())
	fmt.Printf("HB edges       %d (%.1f%% of max)\n", res.HBEdges(), res.OrderedPercent())
	if *compare {
		fmt.Printf("racy pairs     %d (without action sensitivity: %d)\n",
			len(res.RacyPairs), res.RacyPairsNoAS)
	} else {
		fmt.Printf("racy pairs     %d\n", len(res.RacyPairs))
	}
	if !*noRefute {
		fmt.Printf("races          %d (after refutation)\n", res.TrueRaces())
		s := report.Summarize(res.Reports)
		fmt.Printf("categories     app=%d framework=%d library=%d; ref-races=%d; benign-guard=%.1f%%\n",
			s.App, s.Framework, s.Library, s.RefRaces, s.BenignPct)
	}
	fmt.Printf("time           total %.3fs (harness %.3fs, CG+PA %.3fs, HBG %.3fs, pairs %.3fs, compare %.3fs, refutation %.3fs)\n",
		res.Timing.Total.Seconds(), res.Timing.Harness.Seconds(), res.Timing.CGPA.Seconds(),
		res.Timing.HBG.Seconds(), res.Timing.Pairs.Seconds(),
		res.Timing.Compare.Seconds(), res.Timing.Refutation.Seconds())

	if *verbose {
		fmt.Println()
		for i := range res.Reports {
			fmt.Println(res.Reports[i].Describe(res.Registry))
		}
		if len(res.Reports) > 0 {
			fmt.Println("\ntop report in detail:")
			fmt.Print(res.Reports[0].Explain(res.Registry, res.Graph))
		}
		fmt.Println("\nobservability breakdown:")
		fmt.Print(obs.Format(tr.Snapshot()))
		if capped := tr.Counter("refute.entry_stores_capped"); capped > 0 {
			fmt.Printf("\nnote: %d A-walk constraint stores were dropped at the %d-store cap;\n"+
				"affected pairs are over-approximated (reported rather than refuted).\n",
				capped, symexec.EntryStoreCap)
		}
	}

	if *verifyN > 0 {
		factory := func() (*apk.App, error) {
			return loadApp(*appName, *fdroid, *file)
		}
		n := *verifyN
		if n > len(res.Reports) {
			n = len(res.Reports)
		}
		fmt.Printf("\ndynamic confirmation of the top %d reports:\n", n)
		for i := 0; i < n; i++ {
			p := res.Reports[i].Pair
			out, err := verify.WitnessErr(factory, p, verify.Options{Schedules: 120, EventsPerSchedule: 80, Seed: 1})
			if err != nil {
				fmt.Fprintln(os.Stderr, "sierra: -verify reload:", err)
				os.Exit(1)
			}
			status := "NOT WITNESSED"
			switch {
			case out.Confirmed():
				status = fmt.Sprintf("CONFIRMED (seeds %d / %d)", out.WitnessSeedAB, out.WitnessSeedBA)
			case out.ObservedAB || out.ObservedBA:
				status = "one order observed"
			}
			fmt.Printf("  #%d %s on %s: %s\n", i+1, p.Key(), p.A.Location(), status)
		}
	}
}

// resolveJobs maps the flags' 0-means-auto convention to the machine's
// GOMAXPROCS. Worker counts never change results (every parallel kernel
// is bit-for-bit deterministic), only wall clock.
func resolveJobs(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

func loadApp(name string, fdroid int, file string) (*apk.App, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return appfile.Read(f)
	case name != "":
		row, ok := corpus.RowByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown app %q (try -list)", name)
		}
		app, _ := corpus.NamedApp(row)
		return app, nil
	case fdroid >= 0:
		if fdroid >= corpus.FDroidCount {
			return nil, fmt.Errorf("fdroid index out of range (0..%d)", corpus.FDroidCount-1)
		}
		app, _ := corpus.FDroidApp(fdroid)
		return app, nil
	default:
		return nil, fmt.Errorf("pick one of -app, -fdroid, -file")
	}
}

func parsePolicy(s string) (pointer.Policy, error) {
	switch s {
	case "as", "action":
		return pointer.ActionSensitivePolicy{K: 2}, nil
	case "hybrid":
		return pointer.Hybrid{K: 2}, nil
	case "2obj":
		return pointer.KObj{K: 2}, nil
	case "2cfa":
		return pointer.KCFA{K: 2}, nil
	case "insensitive":
		return pointer.Insensitive{}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", s)
	}
}
