package core

import (
	"encoding/json"
	"testing"

	"sierra/internal/corpus"
	"sierra/internal/obs"
)

// TestAnalyzeObsCounters is the observability smoke test: a full
// pipeline run on a handmade corpus app must populate the documented
// counter contract with non-zero effort numbers, stamp the span tree,
// and serialize to valid JSON.
func TestAnalyzeObsCounters(t *testing.T) {
	tr := obs.New("test")
	res := Analyze(corpus.NewsApp(), Options{CompareContexts: true, Obs: tr})
	if res.TrueRaces() == 0 {
		t.Fatal("pipeline found no races; counters below would be vacuous")
	}

	for _, name := range []string{
		"harness.emitted",
		"harness.synthetic_stmts",
		"actions.discovered",
		"pointer.passes",
		"pointer.worklist_iterations",
		"pointer.instances",
		"pointer.call_edges",
		"pointer.cha_targets",
		"shbg.edges.invocation",
		"shbg.edges.lifecycle",
		"shbg.edges_closed",
		"shbg.closure_rounds",
		"race.accesses",
		"race.pairs_considered",
		"race.alias_hits",
		"race.pairs_emitted",
		"refute.pairs",
		"refute.paths",
		"core.reports",
	} {
		if tr.Counter(name) <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, tr.Counter(name))
		}
	}
	if tr.GaugeValue("pointer.pts_objs") <= 0 {
		t.Errorf("gauge pointer.pts_objs = %f, want > 0", tr.GaugeValue("pointer.pts_objs"))
	}

	// Counters must agree with the result they describe.
	if got, want := tr.Counter("harness.emitted"), int64(res.NumHarnesses()); got != want {
		t.Errorf("harness.emitted = %d, result has %d", got, want)
	}
	if got, want := tr.Counter("actions.discovered"), int64(res.NumActions()); got != want {
		t.Errorf("actions.discovered = %d, result has %d", got, want)
	}
	if got, want := tr.Counter("shbg.edges_closed"), int64(res.HBEdges()); got != want {
		t.Errorf("shbg.edges_closed = %d, result has %d", got, want)
	}
	if got, want := tr.Counter("race.pairs_emitted"), int64(len(res.RacyPairs)); got != want {
		t.Errorf("race.pairs_emitted = %d, result has %d", got, want)
	}
	if got, want := tr.Counter("refute.pairs"), int64(len(res.RacyPairs)); got != want {
		t.Errorf("refute.pairs = %d, want one check per candidate (%d)", got, want)
	}
	if got, want := tr.Counter("core.reports"), int64(res.TrueRaces()); got != want {
		t.Errorf("core.reports = %d, result has %d", got, want)
	}

	// AllVerdicts aligns with the candidates; its path counts match the
	// refute.pair_paths series.
	if len(res.AllVerdicts) != len(res.RacyPairs) {
		t.Fatalf("AllVerdicts = %d entries, want %d", len(res.AllVerdicts), len(res.RacyPairs))
	}
	snap := tr.Snapshot()
	series := snap.Series["refute.pair_paths"]
	if len(series) != len(res.RacyPairs) {
		t.Fatalf("refute.pair_paths series = %d samples, want %d", len(series), len(res.RacyPairs))
	}
	var fromVerdicts, fromSeries int64
	for i := range res.AllVerdicts {
		fromVerdicts += int64(res.AllVerdicts[i].Paths)
		fromSeries += series[i].Value
	}
	if fromVerdicts != fromSeries || fromVerdicts != tr.Counter("refute.paths") {
		t.Errorf("path totals disagree: verdicts %d, series %d, counter %d",
			fromVerdicts, fromSeries, tr.Counter("refute.paths"))
	}

	// The span tree carries the pipeline stages under analyze.
	if snap.Trace == nil || len(snap.Trace.Children) == 0 {
		t.Fatal("snapshot has no span tree")
	}
	analyze := snap.Trace.Children[0]
	want := map[string]bool{"harness": true, "cgpa": true, "shbg": true, "pairs": true, "compare": true, "refute": true, "rank": true}
	for _, c := range analyze.Children {
		delete(want, c.Name)
	}
	if len(want) != 0 {
		t.Errorf("span tree missing stages: %v", want)
	}

	raw, err := snap.JSON()
	if err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if !json.Valid(raw) {
		t.Fatal("snapshot JSON is invalid")
	}
}

// TestAnalyzeTimingPartition checks satellite invariant: the timing
// components account for the total (no unattributed stage time).
func TestAnalyzeTimingPartition(t *testing.T) {
	res := Analyze(corpus.NewsApp(), Options{CompareContexts: true})
	sum := res.Timing.Harness + res.Timing.CGPA + res.Timing.HBG +
		res.Timing.Pairs + res.Timing.Compare + res.Timing.Refutation
	if sum > res.Timing.Total {
		t.Fatalf("components (%v) exceed total (%v)", sum, res.Timing.Total)
	}
	// The unattributed remainder must be a sliver (bookkeeping between
	// timers), not a missing stage: allow 10% of total plus 10ms slack
	// for scheduler noise on tiny runs.
	slack := res.Timing.Total/10 + 10e6
	if res.Timing.Total-sum > slack {
		t.Fatalf("unattributed stage time: total %v - components %v > %v", res.Timing.Total, sum, slack)
	}
	if res.Timing.Harness <= 0 {
		t.Fatal("Harness stage not timed")
	}
	if res.Timing.Pairs <= 0 {
		t.Fatal("Pairs stage not timed")
	}
	if res.Timing.Compare <= 0 {
		t.Fatal("Compare stage not timed under CompareContexts")
	}
}
