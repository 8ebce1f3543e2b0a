package metrics

import (
	"context"
	"reflect"
	"testing"

	"sierra/internal/batch"
	"sierra/internal/corpus"
	"sierra/internal/obs"
)

// goldenSubset picks small named-dataset members so the three full
// pipeline runs below stay tractable under `go test -race`.
func goldenSubset(t *testing.T) []corpus.PaperRow {
	t.Helper()
	names := []string{"SuperGenPass", "VuDroid", "TippyTipper", "APV"}
	rows := make([]corpus.PaperRow, 0, len(names))
	for _, n := range names {
		pr, ok := corpus.RowByName(n)
		if !ok {
			t.Fatalf("%s missing from corpus", n)
		}
		rows = append(rows, pr)
	}
	return rows
}

// zeroTimings clears the wall-clock columns, which legitimately vary
// between runs; everything else in a Row is deterministic.
func zeroTimings(rows []Row) []Row {
	out := make([]Row, len(rows))
	copy(out, rows)
	for i := range out {
		out[i].Harness, out[i].CGPA, out[i].HBG, out[i].Pairs = 0, 0, 0, 0
		out[i].Compare, out[i].Refutation, out[i].Total = 0, 0, 0
	}
	return out
}

// TestParallelMatchesSequentialGolden is the determinism golden test:
// the tables produced with -jobs N must be byte-identical to -jobs 1.
// Cold runs are compared with timings zeroed (execution determinism);
// a warm run against the sequential run's cache must match byte for
// byte, timings included, since cached rows are literally the same
// serialized bytes.
func TestParallelMatchesSequentialGolden(t *testing.T) {
	rows := goldenSubset(t)
	ctx := context.Background()

	cache := batch.NewMemCache()
	seq, seqRes := EvaluateNamedBatch(ctx, rows, Options{}, BatchOptions{Jobs: 1, Cache: cache})
	for i, r := range seqRes {
		if r.Status != batch.StatusOK {
			t.Fatalf("sequential job %d (%s) status %q", i, r.Name, r.Status)
		}
	}

	par, parRes := EvaluateNamedBatch(ctx, rows, Options{}, BatchOptions{Jobs: 4})
	if got, want := FormatTable3(zeroTimings(par)), FormatTable3(zeroTimings(seq)); got != want {
		t.Errorf("Table 3 differs between -jobs 4 and -jobs 1 (cold):\n%s\nvs\n%s", got, want)
	}
	if got, want := FormatTable4(zeroTimings(par)), FormatTable4(zeroTimings(seq)); got != want {
		t.Errorf("Table 4 (timings zeroed) differs between -jobs 4 and -jobs 1")
	}
	if !reflect.DeepEqual(zeroTimings(par), zeroTimings(seq)) {
		t.Errorf("rows differ between -jobs 4 and -jobs 1 (cold)")
	}
	for i := range parRes {
		if parRes[i].Status != batch.StatusOK {
			t.Fatalf("parallel job %d status %q", i, parRes[i].Status)
		}
	}

	// Warm parallel run against the sequential cache: byte-identical
	// including timings, and no app is re-analyzed (visible hit count).
	tr := obs.New("warm")
	warm, warmRes := EvaluateNamedBatch(ctx, rows, Options{}, BatchOptions{Jobs: 4, Cache: cache, Obs: tr})
	if got, want := FormatTable3(warm), FormatTable3(seq); got != want {
		t.Errorf("warm Table 3 not byte-identical to sequential run:\n%s\nvs\n%s", got, want)
	}
	if got, want := FormatTable4(warm), FormatTable4(seq); got != want {
		t.Errorf("warm Table 4 not byte-identical to sequential run")
	}
	for i, r := range warmRes {
		if r.Status != batch.StatusCached {
			t.Errorf("warm job %d (%s) status %q, want cached", i, r.Name, r.Status)
		}
	}
	if hits := tr.Counter("batch.cache_hits"); hits != int64(len(rows)) {
		t.Errorf("warm run cache hits = %d, want %d", hits, len(rows))
	}
	if misses := tr.Counter("batch.cache_misses"); misses != 0 {
		t.Errorf("warm run cache misses = %d, want 0", misses)
	}
}

// TestFDroidBatchDeterministic extends the golden guarantee to the
// generated dataset (Table 5): rows and sizes must match between worker
// counts, timings aside.
func TestFDroidBatchDeterministic(t *testing.T) {
	const n = 8
	ctx := context.Background()
	seqRows, seqSizes, _ := EvaluateFDroidBatch(ctx, n, Options{}, BatchOptions{Jobs: 1})
	parRows, parSizes, _ := EvaluateFDroidBatch(ctx, n, Options{}, BatchOptions{Jobs: 4})
	if !reflect.DeepEqual(zeroTimings(parRows), zeroTimings(seqRows)) {
		t.Errorf("fdroid rows differ between -jobs 4 and -jobs 1")
	}
	if !reflect.DeepEqual(parSizes, seqSizes) {
		t.Errorf("fdroid sizes differ: %v vs %v", parSizes, seqSizes)
	}
	if got, want := FormatTable5(zeroTimings(parRows), parSizes), FormatTable5(zeroTimings(seqRows), seqSizes); got != want {
		t.Errorf("Table 5 (timings zeroed) differs between worker counts:\n%s\nvs\n%s", got, want)
	}
}
