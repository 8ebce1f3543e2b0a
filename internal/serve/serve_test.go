package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sierra/internal/corpus"
	"sierra/internal/obs"
	"sierra/internal/serve"
)

// startServer boots a daemon on a random port and tears it down with
// the test. The returned trace observes the service counters.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, string, *obs.Trace) {
	t.Helper()
	tr := obs.New("serve-test")
	cfg.Obs = tr
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("serve.Start: %v", err)
	}
	t.Cleanup(func() {
		s.Drain()
		s.Close()
	})
	return s, "http://" + s.Addr(), tr
}

func submit(t *testing.T, base string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/apps", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/apps: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp.StatusCode, m
}

// waitDone polls the job until it completes and returns its digest.
func waitDone(t *testing.T, base, jobID string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatalf("GET job %s: %v", jobID, err)
		}
		var m map[string]any
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding job %s: %v", jobID, err)
		}
		switch m["status"] {
		case "done":
			return m["digest"].(string)
		case "failed":
			t.Fatalf("job %s failed: %v", jobID, m["error"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not complete", jobID)
	return ""
}

func fetchReport(t *testing.T, base, digest string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/reports/" + digest)
	if err != nil {
		t.Fatalf("GET report %s: %v", digest, err)
	}
	defer resp.Body.Close()
	doc, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report %s: status %d: %s", digest, resp.StatusCode, doc)
	}
	return doc
}

func TestSubmitPollFetch(t *testing.T) {
	_, base, _ := startServer(t, serve.Config{})
	raw := corpus.IncrDemoText(corpus.IncrDemoEdit{})

	code, m := submit(t, base, raw)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d body %v", code, m)
	}
	if m["job_id"] == "" || m["digest"] == "" {
		t.Fatalf("submit response missing ids: %v", m)
	}
	digest := waitDone(t, base, m["job_id"].(string))

	doc := fetchReport(t, base, digest)
	var report map[string]any
	if err := json.Unmarshal(doc, &report); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, doc)
	}
	if report["schema"] != serve.ReportSchema {
		t.Errorf("schema = %v, want %s", report["schema"], serve.ReportSchema)
	}
	if report["app"] != "IncrDemo" || report["digest"] != digest {
		t.Errorf("report identity wrong: app=%v digest=%v", report["app"], report["digest"])
	}
	if !bytes.Contains(doc, []byte(`".f2"`)) || bytes.Contains(doc, []byte(`".f1"`)) {
		t.Errorf("baseline report must contain the f2 race and refute f1:\n%s", doc)
	}

	// Resubmitting the identical bytes is answered from the store.
	code, m = submit(t, base, raw)
	if code != http.StatusOK || m["status"] != "done" {
		t.Errorf("duplicate submit: status %d body %v, want 200/done", code, m)
	}
	if m["report"] != "/v1/reports/"+digest {
		t.Errorf("duplicate submit report path = %v", m["report"])
	}
}

func TestMalformedAndUnknown(t *testing.T) {
	_, base, tr := startServer(t, serve.Config{})

	code, m := submit(t, base, []byte("this is not an app document"))
	if code != http.StatusBadRequest {
		t.Errorf("malformed submit: status %d body %v, want 400", code, m)
	}
	if m["error"] == "" {
		t.Errorf("malformed submit: no error message: %v", m)
	}
	// An empty body parses but has no app name — equally malformed.
	if code, m := submit(t, base, nil); code != http.StatusBadRequest {
		t.Errorf("empty submit: status %d body %v, want 400", code, m)
	}
	if got := tr.Counter("serve.malformed"); got != 2 {
		t.Errorf("serve.malformed = %d, want 2", got)
	}
	if got := tr.Counter("serve.submissions"); got != 0 {
		t.Errorf("serve.submissions = %d, want 0 (malformed never counts)", got)
	}

	resp, err := http.Get(base + "/v1/apps")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/apps: status %d, want 405", resp.StatusCode)
	}

	for _, path := range []string{"/v1/jobs/j999", "/v1/reports/deadbeef"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestCyclicHierarchyRejected submits an app whose interfaces form a
// cycle (which once overflowed the daemon's stack while parsing), then
// checks the daemon still analyzes a valid app.
func TestCyclicHierarchyRejected(t *testing.T) {
	_, base, _ := startServer(t, serve.Config{})
	cyclic := []byte("app cyc\nactivity Act0\nclass I1 implements I2\nclass I2 implements I1\n" +
		"class Act0 extends android.app.Activity implements I1\n")
	code, m := submit(t, base, cyclic)
	if code != http.StatusBadRequest {
		t.Fatalf("cyclic submit: status %d body %v, want 400", code, m)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "class hierarchy cycle") {
		t.Errorf("cyclic submit: error %q does not name the cycle", msg)
	}
	code, m = submit(t, base, corpus.IncrDemoText(corpus.IncrDemoEdit{}))
	if code != http.StatusAccepted {
		t.Fatalf("valid submit after the cyclic one: status %d body %v", code, m)
	}
	fetchReport(t, base, waitDone(t, base, m["job_id"].(string)))
}

// TestConcurrentSubmitDedup: one digest submitted from many clients at
// once must never analyze twice — every submission is answered with the
// shared in-flight job or the stored report, and every client ends up
// reading identical bytes.
func TestConcurrentSubmitDedup(t *testing.T) {
	_, base, tr := startServer(t, serve.Config{})
	raw := corpus.IncrDemoText(corpus.IncrDemoEdit{})

	const clients = 8
	var wg sync.WaitGroup
	jobIDs := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/apps", "text/plain", bytes.NewReader(raw))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var m map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d body %v", i, resp.StatusCode, m)
				return
			}
			if id, _ := m["job_id"].(string); id != "" {
				jobIDs[i] = id
			}
		}(i)
	}
	wg.Wait()

	ids := map[string]bool{}
	var digest string
	for _, id := range jobIDs {
		if id != "" {
			ids[id] = true
			digest = waitDone(t, base, id)
		}
	}
	if len(ids) != 1 {
		t.Fatalf("concurrent submissions created %d jobs (%v), want exactly 1", len(ids), ids)
	}
	if got := tr.Counter("serve.jobs_done"); got != 1 {
		t.Errorf("serve.jobs_done = %d, want 1 (dedup must prevent re-analysis)", got)
	}
	want := fetchReport(t, base, digest)
	for i := 0; i < 3; i++ {
		if got := fetchReport(t, base, digest); !bytes.Equal(got, want) {
			t.Fatalf("report fetch %d differs", i)
		}
	}
}

// TestIncrementalResubmission drives the warm-baseline path end to end:
// a revision differing only in an If operand must be absorbed
// incrementally (fewer pairs re-refuted than exist), flip the guarded
// verdict, and a skeleton-visible revision must fall back to a full run
// — all observable through the service counters and the reports.
func TestIncrementalResubmission(t *testing.T) {
	_, base, tr := startServer(t, serve.Config{})

	code, m := submit(t, base, corpus.IncrDemoText(corpus.IncrDemoEdit{}))
	if code != http.StatusAccepted {
		t.Fatalf("baseline submit: status %d", code)
	}
	waitDone(t, base, m["job_id"].(string))

	code, m = submit(t, base, corpus.IncrDemoText(corpus.IncrDemoEdit{IfLine: "if c == int 0"}))
	if code != http.StatusAccepted {
		t.Fatalf("edited submit: status %d", code)
	}
	digest := waitDone(t, base, m["job_id"].(string))

	if got := tr.Counter("incremental.applies"); got != 1 {
		t.Errorf("incremental.applies = %d, want 1", got)
	}
	rerefuted := tr.Counter("incremental.pairs_rerefuted")
	reused := tr.Counter("incremental.pairs_reused")
	if rerefuted < 1 {
		t.Errorf("incremental.pairs_rerefuted = %d, want >= 1", rerefuted)
	}
	if reused < 1 {
		t.Errorf("incremental.pairs_reused = %d, want >= 1 (untouched pair must be reused)", reused)
	}
	doc := fetchReport(t, base, digest)
	if !bytes.Contains(doc, []byte(`".f1"`)) {
		t.Errorf("edited revision must surface the now-feasible f1 race:\n%s", doc)
	}

	// A skeleton-visible edit declines and falls back to the full path.
	code, m = submit(t, base, corpus.IncrDemoText(corpus.IncrDemoEdit{ExtraStmt: "load w a f1"}))
	if code != http.StatusAccepted {
		t.Fatalf("fallback submit: status %d", code)
	}
	waitDone(t, base, m["job_id"].(string))
	if got := tr.Counter("incremental.fallbacks"); got != 1 {
		t.Errorf("incremental.fallbacks = %d, want 1", got)
	}
	if got := tr.Counter("incremental.applies"); got != 1 {
		t.Errorf("incremental.applies moved to %d on a declined plan", got)
	}
}

// TestStorePersistence: with a StoreDir, reports outlive the daemon — a
// fresh server over the same directory answers a duplicate submission
// from the store without re-analyzing.
func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	raw := corpus.IncrDemoText(corpus.IncrDemoEdit{})

	s1, base1, _ := startServer(t, serve.Config{StoreDir: dir})
	_, m := submit(t, base1, raw)
	digest := waitDone(t, base1, m["job_id"].(string))
	want := fetchReport(t, base1, digest)
	s1.Drain()
	s1.Close()

	_, base2, tr2 := startServer(t, serve.Config{StoreDir: dir})
	code, m := submit(t, base2, raw)
	if code != http.StatusOK || m["status"] != "done" {
		t.Fatalf("restarted server: status %d body %v, want 200/done", code, m)
	}
	if got := tr2.Counter("serve.report_hits"); got != 1 {
		t.Errorf("serve.report_hits = %d, want 1", got)
	}
	if got := fetchReport(t, base2, digest); !bytes.Equal(got, want) {
		t.Error("report changed across restart")
	}
}

// TestDrain: a draining server rejects new submissions with 503 but
// finishes and serves what it already accepted.
func TestDrain(t *testing.T) {
	s, base, tr := startServer(t, serve.Config{})
	raw := corpus.IncrDemoText(corpus.IncrDemoEdit{})
	_, m := submit(t, base, raw)
	jobID := m["job_id"].(string)

	s.Drain() // blocks until the in-flight analysis completes

	digest := waitDone(t, base, jobID)
	fetchReport(t, base, digest)

	code, m2 := submit(t, base, corpus.IncrDemoText(corpus.IncrDemoEdit{IfLine: "if c == int 0"}))
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d body %v, want 503", code, m2)
	}
	if got := tr.Counter("serve.drains"); got != 1 {
		t.Errorf("serve.drains = %d, want 1", got)
	}
}

// TestQueueFullAndOversized exercises the remaining rejection paths.
func TestQueueFullAndOversized(t *testing.T) {
	_, base, _ := startServer(t, serve.Config{})

	// An over-cap body is refused before parsing (16 MiB + 1 of noise).
	big := bytes.Repeat([]byte("x"), 16<<20+1)
	resp, err := http.Post(base+"/v1/apps", "text/plain", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit: status %d, want 413", resp.StatusCode)
	}
}

// TestTelemetryMounted: the export debug surface shares the service
// port.
func TestTelemetryMounted(t *testing.T) {
	_, base, _ := startServer(t, serve.Config{})
	for _, path := range []string{"/healthz", "/metrics", "/progress"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/progress" && !strings.Contains(string(body), `"draining"`) {
			t.Errorf("/progress missing service fields: %s", body)
		}
	}
}

// TestJobWaitObserved: queue latency lands in the wait histogram.
func TestJobWaitObserved(t *testing.T) {
	_, base, tr := startServer(t, serve.Config{})
	_, m := submit(t, base, corpus.IncrDemoText(corpus.IncrDemoEdit{}))
	waitDone(t, base, m["job_id"].(string))
	if n := tr.Hist("serve.job_wait_ms").Count(); n != 1 {
		t.Errorf("serve.job_wait_ms count = %d, want 1", n)
	}
}

// TestStageReuseResubmission drives tier-2 partial stage reuse end to
// end through the daemon: a skeleton-visible one-method edit (an
// inserted dataflow sink) must be absorbed by the warm baseline —
// pointer delta re-seed, SHBG row patch, pair diff — and the report it
// answers with must be byte-identical to what a cold daemon computes
// for the same bytes.
func TestStageReuseResubmission(t *testing.T) {
	_, base, tr := startServer(t, serve.Config{})

	code, m := submit(t, base, corpus.StageDemoText(4, corpus.StageDemoEdit{}))
	if code != http.StatusAccepted {
		t.Fatalf("baseline submit: status %d", code)
	}
	waitDone(t, base, m["job_id"].(string))

	edited := corpus.StageDemoText(4, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"})
	code, m = submit(t, base, edited)
	if code != http.StatusAccepted {
		t.Fatalf("edited submit: status %d", code)
	}
	digest := waitDone(t, base, m["job_id"].(string))

	if got := tr.Counter("incremental.stage_applies"); got != 1 {
		t.Errorf("incremental.stage_applies = %d, want 1", got)
	}
	if got := tr.Counter("incremental.stage_reuse_pta"); got != 1 {
		t.Errorf("incremental.stage_reuse_pta = %d, want 1", got)
	}
	if got := tr.Counter("incremental.stage_reuse_shbg"); got != 1 {
		t.Errorf("incremental.stage_reuse_shbg = %d, want 1", got)
	}
	if spliced := tr.Counter("incremental.pairs_spliced"); spliced < 1 {
		t.Errorf("incremental.pairs_spliced = %d, want >= 1", spliced)
	}
	warm := fetchReport(t, base, digest)

	// The cold truth: a fresh daemon with no baseline for this lineage.
	_, base2, tr2 := startServer(t, serve.Config{})
	_, m = submit(t, base2, edited)
	cold := fetchReport(t, base2, waitDone(t, base2, m["job_id"].(string)))
	if got := tr2.Counter("incremental.stage_applies"); got != 0 {
		t.Fatalf("control daemon took the stage path (%d applies) — not a cold run", got)
	}
	if !bytes.Equal(warm, cold) {
		t.Errorf("stage-reused report differs from cold:\n-- warm --\n%s\n-- cold --\n%s", warm, cold)
	}
}

// TestLineageWaves: a gathered batch holding several revisions of one
// app must run them serialized in submission order (they absorb into
// one warm baseline) while an unrelated lineage rides the first wave
// concurrently. A slow occupier (a large StageDemo — its own lineage,
// the group count is part of the app name) keeps the dispatcher busy
// in its first batch so the three follow-up submissions coalesce into
// one gathered batch; timing-dependent, so the burst retries on a
// fresh server if the coalesce window was missed.
func TestLineageWaves(t *testing.T) {
	const attempts = 3
	for attempt := 0; attempt < attempts; attempt++ {
		_, base, tr := startServer(t, serve.Config{Workers: 2})

		// ~100ms of analysis: a wide window next to three local POSTs.
		_, m0 := submit(t, base, corpus.StageDemoText(60, corpus.StageDemoEdit{}))

		// While the occupier analyzes, queue two revisions of IncrDemo
		// and one revision of StageDemo2.
		_, mA1 := submit(t, base, corpus.IncrDemoText(corpus.IncrDemoEdit{}))
		_, mA2 := submit(t, base, corpus.IncrDemoText(corpus.IncrDemoEdit{IfLine: "if c == int 0"}))
		_, mB1 := submit(t, base, corpus.StageDemoText(2, corpus.StageDemoEdit{}))

		waitDone(t, base, m0["job_id"].(string))
		waitDone(t, base, mA1["job_id"].(string))
		digestA2 := waitDone(t, base, mA2["job_id"].(string))
		waitDone(t, base, mB1["job_id"].(string))

		if tr.Counter("serve.lineage_waves") < 1 {
			if attempt < attempts-1 {
				continue // window missed; retry on a fresh server
			}
			t.Fatalf("serve.lineage_waves = 0 after %d attempts (second IncrDemo revision never ran in a later wave)", attempts)
		}
		// Order proof: the second revision saw the first as its baseline
		// (incremental apply), and its report reflects the edited branch.
		if got := tr.Counter("incremental.applies"); got < 1 {
			t.Errorf("incremental.applies = %d, want >= 1 (serialized lineage must absorb in order)", got)
		}
		doc := fetchReport(t, base, digestA2)
		if !bytes.Contains(doc, []byte(`".f1"`)) {
			t.Errorf("second revision's report must surface the now-feasible f1 race:\n%s", doc)
		}
		return
	}
}
