package metrics

import (
	"strings"
	"testing"

	"sierra/internal/corpus"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 2}, 1.5},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Error("Median sorted the caller's slice")
	}
}

func TestEvaluateNamedRowShape(t *testing.T) {
	pr, _ := corpus.RowByName("SuperGenPass")
	row := EvaluateNamed(pr, Options{WithDynamic: true, Schedules: 3, EventsPerSchedule: 25})
	if row.Name != "SuperGenPass" {
		t.Errorf("name = %s", row.Name)
	}
	if row.Harnesses != pr.Harnesses {
		t.Errorf("harnesses = %d, want %d", row.Harnesses, pr.Harnesses)
	}
	if row.RacyNoAS < row.RacyAS || row.RacyAS < row.AfterRefut {
		t.Errorf("funnel violated: %+v", row)
	}
	if row.TrueRaces+row.FP != row.AfterRefut {
		t.Errorf("classification doesn't sum: %d + %d != %d", row.TrueRaces, row.FP, row.AfterRefut)
	}
	if row.EventRacer < 0 {
		t.Error("dynamic baseline not run")
	}
	if row.EventRacer > row.AfterRefut*3 {
		t.Errorf("dynamic reports implausibly high: %d vs %d static", row.EventRacer, row.AfterRefut)
	}
	if row.Total <= 0 || row.CGPA <= 0 {
		t.Error("timings missing")
	}
}

func TestMedianRowAggregation(t *testing.T) {
	rows := []Row{
		{Harnesses: 1, Actions: 10, RacyAS: 4, EventRacer: 2, Total: 1},
		{Harnesses: 3, Actions: 30, RacyAS: 8, EventRacer: -1, Total: 3},
		{Harnesses: 5, Actions: 50, RacyAS: 12, EventRacer: 6, Total: 5},
	}
	m := MedianRow(rows)
	if m.Harnesses != 3 || m.Actions != 30 || m.RacyAS != 8 || m.Total != 3 {
		t.Errorf("median row wrong: %+v", m)
	}
	// EventRacer median skips the unavailable (-1) entries.
	if m.EventRacer != 4 {
		t.Errorf("ER median = %d, want 4 (median of 2,6)", m.EventRacer)
	}
}

// TestMedianRowCarriesAllFields is the regression test for MedianRow
// forgetting newly-added columns: every timing/effort field must
// aggregate, for both odd- and even-length inputs, and the EventRacer
// median must skip (not zero-fill) the -1 "not run" entries.
func TestMedianRowCarriesAllFields(t *testing.T) {
	mk := func(scale int) Row {
		s := float64(scale)
		return Row{
			Harnesses: scale, Actions: 10 * scale, HBEdges: 100 * scale,
			OrderedPct: s, RacyNoAS: 4 * scale, RacyAS: 2 * scale,
			AfterRefut: scale, TrueRaces: scale, FP: scale,
			EventRacer: -1,
			Harness:    s, CGPA: s, HBG: 2 * s, Pairs: 3 * s, Compare: 4 * s,
			Refutation: 5 * s, Total: 16 * s,
			PAPasses: scale, PAIters: 10 * scale,
			RefPaths: 100 * scale, RefPruned: 50 * scale,
		}
	}

	odd := MedianRow([]Row{mk(1), mk(3), mk(10)})
	wantOdd := mk(3)
	wantOdd.Name = "Median"
	if odd != wantOdd {
		t.Errorf("odd-length median dropped a field:\ngot  %+v\nwant %+v", odd, wantOdd)
	}
	if odd.EventRacer != -1 {
		t.Errorf("all-not-run EventRacer median = %d, want -1", odd.EventRacer)
	}

	even := MedianRow([]Row{mk(1), mk(3)})
	if even.Pairs != 2*3 || even.Compare != 2*4 || even.Refutation != 2*5 {
		t.Errorf("even-length timing medians wrong: %+v", even)
	}
	if even.PAPasses != 2 || even.PAIters != 20 || even.RefPaths != 200 || even.RefPruned != 100 {
		t.Errorf("even-length effort medians wrong: %+v", even)
	}

	// Mixed EventRacer: -1 rows are filtered before the median.
	mixed := []Row{
		{EventRacer: -1}, {EventRacer: 2}, {EventRacer: -1}, {EventRacer: 8},
	}
	if m := MedianRow(mixed); m.EventRacer != 5 {
		t.Errorf("mixed EventRacer median = %d, want 5 (median of 2,8)", m.EventRacer)
	}
}

func TestEvaluateRowEffortColumns(t *testing.T) {
	pr, _ := corpus.RowByName("SuperGenPass")
	row := EvaluateNamed(pr, Options{})
	if row.PAPasses <= 0 || row.PAIters <= 0 {
		t.Errorf("pointer effort columns empty: %+v", row)
	}
	if row.RacyAS > 0 && row.RefPaths <= 0 {
		t.Errorf("refutation ran on %d pairs but RefPaths = %d", row.RacyAS, row.RefPaths)
	}
	if row.Pairs <= 0 || row.Compare <= 0 {
		t.Errorf("Pairs/Compare stages not timed: %+v", row)
	}
	sum := row.Harness + row.CGPA + row.HBG + row.Pairs + row.Compare + row.Refutation
	if sum > row.Total {
		t.Errorf("stage sum %f exceeds total %f", sum, row.Total)
	}
}

func TestFormatTables(t *testing.T) {
	pr, _ := corpus.RowByName("VuDroid")
	row := EvaluateNamed(pr, Options{})
	t3 := FormatTable3([]Row{row})
	for _, want := range []string{"Table 3", "VuDroid", "Median (paper)", "431"} {
		if !strings.Contains(t3, want) {
			t.Errorf("table 3 missing %q:\n%s", want, t3)
		}
	}
	t4 := FormatTable4([]Row{row})
	for _, want := range []string{"Table 4", "VuDroid", "Refutation"} {
		if !strings.Contains(t4, want) {
			t.Errorf("table 4 missing %q", want)
		}
	}
	t5 := FormatTable5([]Row{row}, []int{2048 * 1024})
	for _, want := range []string{"Table 5", "racy pairs", "harness+CG+PA", "1114", "2048"} {
		if !strings.Contains(t5, want) {
			t.Errorf("table 5 missing %q:\n%s", want, t5)
		}
	}
}

func TestFormatTable2IncludesAllApps(t *testing.T) {
	t2 := FormatTable2()
	for _, name := range corpus.Names() {
		if !strings.Contains(t2, name) {
			t.Errorf("table 2 missing %s", name)
		}
	}
	if !strings.Contains(t2, "100,000,000–500,000,000") {
		t.Error("install brackets missing")
	}
}

func TestEvaluateFDroid(t *testing.T) {
	row := EvaluateFDroid(7, Options{})
	if !strings.HasPrefix(row.Name, "fdroid-") {
		t.Errorf("name = %s", row.Name)
	}
	if row.AfterRefut > row.RacyAS {
		t.Errorf("funnel violated: %+v", row)
	}
}

func TestPipelineFullyDeterministic(t *testing.T) {
	// Two independent evaluations of the same named app must agree on
	// every column — the whole pipeline (harness, fixpoint, SHBG,
	// refutation, ranking) is deterministic by construction.
	pr, _ := corpus.RowByName("TippyTipper")
	a := EvaluateNamed(pr, Options{})
	b := EvaluateNamed(pr, Options{})
	if a.Actions != b.Actions || a.HBEdges != b.HBEdges ||
		a.RacyNoAS != b.RacyNoAS || a.RacyAS != b.RacyAS ||
		a.AfterRefut != b.AfterRefut || a.TrueRaces != b.TrueRaces || a.FP != b.FP {
		t.Fatalf("nondeterministic pipeline:\n%+v\n%+v", a, b)
	}
}
