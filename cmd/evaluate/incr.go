package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"sierra/internal/appfile"
	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/incremental"
	"sierra/internal/serve"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// incrBenchReport is the -incr-bench schema (sierra-bench-incr/v1): the
// cold-vs-warm comparison for one canonical skeleton-visible edit — a
// dataflow-sink statement inserted into one listener of a generated
// multi-group app. Cold is parse + fingerprint + full pipeline on the
// edited revision; warm is parse + fingerprint + partial stage reuse
// against a fresh baseline (built untimed each iteration, so the warm
// number is one apply, not an amortized average). Reports are asserted
// byte-identical every iteration before any timing is written.
type incrBenchReport struct {
	Schema string `json:"schema"`
	GitSHA string `json:"git_sha,omitempty"`
	// Groups sizes the generated app (independent listener trios);
	// Iters is the measurement count per side.
	Groups int `json:"groups"`
	Iters  int `json:"iters"`
	// ColdMsMedian / WarmMsMedian are the per-side medians; Speedup is
	// their ratio (the ISSUE's acceptance floor is 3x).
	ColdMsMedian float64 `json:"cold_ms_median"`
	WarmMsMedian float64 `json:"warm_ms_median"`
	Speedup      float64 `json:"speedup"`
	// Pair-table accounting for the warm apply.
	PairsTotal     int `json:"pairs_total"`
	PairsRerefuted int `json:"pairs_rerefuted"`
	PairsSpliced   int `json:"pairs_spliced"`
	// StagesReused counts the pipeline stages patched rather than
	// recomputed (points-to + SHBG = 2 on the canonical edit).
	StagesReused int `json:"stages_reused"`
	// ByteIdentical records the report-parity assertion (always true in
	// a written artifact — a mismatch fails the run instead).
	ByteIdentical bool `json:"byte_identical"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// runIncrBench measures the incremental lane and writes the artifact.
func runIncrBench(path string, iters, groups int, quiet bool) error {
	if iters < 1 {
		iters = 1
	}
	baseRaw := corpus.StageDemoText(groups, corpus.StageDemoEdit{})
	editRaw := corpus.StageDemoText(groups, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"})
	editDigest := batch.RawDigest(editRaw)
	refCfg := symexec.Config{Jobs: 2} // per-pair-pure verdicts, splice-safe
	opts := core.Options{Refuter: refCfg}

	var coldMs, warmMs []float64
	var stats incremental.StageStats
	for it := 0; it < iters; it++ {
		// Cold: what serve does without a baseline — parse, fingerprint,
		// full pipeline. The forced collection before each timed window
		// keeps the other side's garbage from being charged to it (in the
		// daemon, GC cost follows allocation, which is exactly what each
		// window's own work incurs).
		runtime.GC()
		t0 := time.Now()
		capp, err := appfile.Parse(editRaw)
		if err != nil {
			return err
		}
		incremental.Compute(capp)
		cres := core.Analyze(capp, opts)
		coldMs = append(coldMs, float64(time.Since(t0))/1e6)
		coldDoc := serve.RenderReport(editDigest, cres)

		// Baseline (untimed): a fresh warm analysis of the base revision.
		bapp, err := appfile.Parse(baseRaw)
		if err != nil {
			return err
		}
		bfp := incremental.Compute(bapp) // before analysis extends the program
		bopts := opts
		bopts.KeepPTAWarm = true
		bres := core.Analyze(bapp, bopts)
		baseline := &incremental.Baseline{
			Name: bapp.Name, Digest: batch.RawDigest(baseRaw),
			FP: bfp, App: bapp, Res: bres, Warm: bres.PTAWarm,
		}

		// Warm: parse, fingerprint, partial stage reuse.
		runtime.GC()
		t1 := time.Now()
		wapp, err := appfile.Parse(editRaw)
		if err != nil {
			return err
		}
		wfp := incremental.Compute(wapp)
		st, ok := baseline.ApplyStages(wapp, wfp, editDigest, refCfg, shbg.Options{}, nil)
		if !ok {
			return fmt.Errorf("incr-bench: stage apply declined (%s); the canonical edit must stay warm", st.Plan.Reason)
		}
		warmMs = append(warmMs, float64(time.Since(t1))/1e6)
		stats = st

		warmDoc := serve.RenderReport(editDigest, baseline.Res)
		if !bytes.Equal(coldDoc, warmDoc) {
			return fmt.Errorf("incr-bench: warm report differs from cold (iteration %d)", it)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "[incr %d/%d] cold %.1fms warm %.1fms (%d/%d pairs re-refuted)\n",
				it+1, iters, coldMs[it], warmMs[it], st.PairsRerefuted, st.PairsTotal)
		}
	}

	rep := incrBenchReport{
		Schema:         "sierra-bench-incr/v1",
		GitSHA:         gitSHA(),
		Groups:         groups,
		Iters:          iters,
		ColdMsMedian:   median(coldMs),
		WarmMsMedian:   median(warmMs),
		PairsTotal:     stats.PairsTotal,
		PairsRerefuted: stats.PairsRerefuted,
		PairsSpliced:   stats.PairsSpliced,
		ByteIdentical:  true,
	}
	if rep.WarmMsMedian > 0 {
		rep.Speedup = rep.ColdMsMedian / rep.WarmMsMedian
	}
	if stats.ReusedPTA {
		rep.StagesReused++
	}
	if stats.ReusedSHBG {
		rep.StagesReused++
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
