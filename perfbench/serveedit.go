package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sierra/internal/corpus"
)

// Revision kinds of the serve-edit plan.
const (
	kindBase  = "base"  // a lineage's first revision, analyzed cold during set-up
	kindTier1 = "tier1" // If-operand edit: tier-1 whole-stage reuse
	kindTier2 = "tier2" // one more accumulated dataflow-sink insert: tier-2 partial reuse
	kindResub = "resub" // exact resubmission of an earlier revision: the report store answers
	kindCold  = "cold"  // declined edit (call insert, or handler add/remove): cold fallback
)

// cycle is one round of one lineage, the fixed traffic mix: 16 tier-1
// edits, 12 tier-2 inserts, 3 resubmissions and one declined edit. The
// weights are a modeling choice, set so that the incremental paths do
// most of the daemon's work. Measured one revision at a time on the
// reference host (2 vCPUs), a tier-1 edit costs 9-21 ms of daemon CPU, a
// tier-2 insert 15-50 ms, a resubmission 5-8 ms and a cold fallback
// 55-340 ms, from the 32-group to the 96-group lineage. A round's CPU
// is then about 30% tier-1, 45% tier-2, 22% cold and 3% store hits, so
// doubling the cost of either incremental tier moves cpu_ms_per_app by
// more than its bound.
var cycle = func() []string {
	block := []string{kindTier1, kindTier2, kindTier1, kindTier2, kindTier1, kindTier2, kindTier1, kindResub}
	var c []string
	for i := 0; i < 4; i++ {
		c = append(c, block...)
	}
	c[len(c)-1] = kindCold
	return c
}()

// lineageGroups are the StageDemo listener-group counts of the
// lineages; each size names its own lineage (app StageDemo<groups>).
var lineageGroups = []int{32, 48, 64, 96}

// serveRound is the nominal wall time of one round; maxRounds bounds
// the recorded plan, and so the rounds one run can measure.
const (
	serveRound = 3 * time.Second
	maxRounds  = 8
)

type revision struct {
	kind string
	raw  []byte
	of   int // for kindResub: the index of the revision resubmitted
}

// lineage is one app's revision history: revs[0] is the base, and
// round r is revs[1+r*len(cycle) : 1+(r+1)*len(cycle)].
type lineage struct {
	name string
	revs []revision
}

// planLineages renders every lineage's revisions. The plan does not
// depend on the seed, so its report digests can be recorded once.
// Tier-2 inserts accumulate within a round (a plain substitution of one
// insert for another is declined by the tier-2 gate, not absorbed), and
// each round's declined edit drops them again, so every round costs the
// same however many rounds a run completes.
func planLineages() []lineage {
	var ls []lineage
	for _, g := range lineageGroups {
		ifK, loads, handler := 1, 0, false
		var stmts []string
		render := func() []byte {
			return corpus.StageDemoText(g, corpus.StageDemoEdit{
				IfLine:       fmt.Sprintf("if c == int %d", ifK),
				ExtraStmt:    strings.Join(stmts, "\n"),
				ExtraHandler: handler,
			})
		}
		l := lineage{name: fmt.Sprintf("StageDemo%d", g)}
		l.revs = append(l.revs, revision{kind: kindBase, raw: render()})
		for r := 0; r < maxRounds; r++ {
			for _, k := range cycle {
				switch k {
				case kindTier1:
					ifK++
				case kindTier2:
					stmts = append(stmts, fmt.Sprintf("load w%d a f1_0", loads))
					loads++
				case kindResub:
					n := len(l.revs) - 3
					l.revs = append(l.revs, revision{kind: k, raw: l.revs[n].raw, of: n})
					continue
				case kindCold:
					if r%2 == 0 {
						stmts = []string{"call v _ a Act0 helper"}
					} else {
						stmts, handler = nil, !handler
					}
				}
				l.revs = append(l.revs, revision{kind: k, raw: render()})
			}
		}
		ls = append(ls, l)
	}
	return ls
}

// daemon is one running `sierra serve` process and a client for it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
}

var listenRE = regexp.MustCompile(`listening on (http://[0-9.:]+)`)

// startDaemon boots `sierra serve` on a free loopback port and waits
// for it to announce its address.
func (b *bench) startDaemon(i int) (*daemon, error) {
	logPath := filepath.Join(b.work, fmt.Sprintf("serve%d.log", i))
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	cmd := b.sut("sierra", "serve", "-addr", "127.0.0.1:0")
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, client: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * len(lineageGroups)},
	}}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		raw, _ := os.ReadFile(logPath)
		if m := listenRE.FindSubmatch(raw); m != nil {
			d.base = string(m[1])
			return d, nil
		}
	}
	d.kill()
	return nil, fmt.Errorf("sierra serve never announced its address")
}

// stop drains the daemon with SIGTERM and returns its lifetime usage.
func (d *daemon) stop() (usage, error) {
	d.client.Transport.(*http.Transport).CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return usage{}, err
	}
	err := d.cmd.Wait()
	return finished(d.cmd.ProcessState), err
}

// kill ends a daemon that was not stopped, on error paths.
func (d *daemon) kill() {
	if d.cmd.ProcessState == nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}

func (d *daemon) cpu() time.Duration {
	c, err := liveCPU(d.cmd.Process.Pid)
	if err != nil {
		return 0
	}
	return c
}

// outcome is one submitted revision as the client saw it.
type outcome struct {
	submitMS, reportMS float64
	doc                []byte
	err                error
}

// analyze submits raw, polls its job until done, and fetches the
// report: the closed-loop step of one session.
func (d *daemon) analyze(raw []byte) outcome {
	var o outcome
	t0 := time.Now()
	var sub struct {
		JobID  string `json:"job_id"`
		Digest string `json:"digest"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if o.err = d.call("POST", "/v1/apps", raw, &sub); o.err != nil {
		return o
	}
	o.submitMS = float64(time.Since(t0).Microseconds()) / 1e3
	for sub.Status != "done" {
		if sub.Status == "failed" {
			o.err = fmt.Errorf("job %s failed: %s", sub.JobID, sub.Error)
			return o
		}
		time.Sleep(5 * time.Millisecond)
		if o.err = d.call("GET", "/v1/jobs/"+sub.JobID, nil, &sub); o.err != nil {
			return o
		}
	}
	o.doc, o.err = d.get("/v1/reports/" + sub.Digest)
	o.reportMS = float64(time.Since(t0).Microseconds()) / 1e3
	return o
}

// call makes one API request and decodes its 2xx JSON body into v.
func (d *daemon) call(method, path string, body []byte, v any) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, v)
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return raw, err
}

// counters reads the daemon's counter families from /metrics.
func (d *daemon) counters() (map[string]float64, error) {
	raw, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m, nil
}

// seen is what the client recorded about one submitted revision.
type seen struct {
	races, racyPairs int
}

// serveEdit is one serve-edit run's state.
type serveEdit struct {
	b        *bench
	lineages []lineage
	golden   map[string]string // "lineage/index" -> report sha256
	sessions [][]int           // lineage indices per closed-loop session

	mu                 sync.Mutex
	got                map[string]seen
	submitMS, reportMS []float64
}

// submit runs one revision through the daemon and checks its report.
func (s *serveEdit) submit(d *daemon, li, idx int, timed bool) {
	l := &s.lineages[li]
	rev := l.revs[idx]
	key := fmt.Sprintf("%s/%d", l.name, idx)
	want := key
	if rev.kind == kindResub {
		want = fmt.Sprintf("%s/%d", l.name, rev.of)
	}
	o := d.analyze(rev.raw)
	var doc reportDoc
	if o.err == nil {
		o.err = json.Unmarshal(o.doc, &doc)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if o.err != nil {
		s.b.check(false, "%s (%s): %v", key, rev.kind, o.err)
		return
	}
	s.b.check(sha256Hex(o.doc) == s.golden[want], "%s (%s): report differs from the golden digest", key, rev.kind)
	s.got[key] = seen{len(doc.Races), doc.RacyPairs}
	if timed {
		s.submitMS = append(s.submitMS, o.submitMS)
		s.reportMS = append(s.reportMS, o.reportMS)
	}
}

// each runs f once per session, concurrently, and waits for all.
func (s *serveEdit) each(f func(lineages []int)) {
	var wg sync.WaitGroup
	for _, ls := range s.sessions {
		wg.Add(1)
		go func(ls []int) {
			defer wg.Done()
			f(ls)
		}(ls)
	}
	wg.Wait()
}

// runServeEdit drives one `sierra serve` daemon with at most nproc
// closed-loop sessions, each owning whole lineages so every lineage's
// revisions arrive in plan order. Set-up boots a daemon and primes every
// lineage's base revision; it is repeated setupRepeats times and the
// last daemon serves the timed rounds.
func runServeEdit(b *bench) error {
	s := &serveEdit{b: b, lineages: planLineages(), golden: map[string]string{}, got: map[string]seen{}}
	rows, err := readTSV(filepath.Join(b.root, goldenDir, "serve-edit.tsv"))
	if err != nil {
		return err
	}
	for _, r := range rows {
		s.golden[r[0]+"/"+r[1]] = r[3]
	}
	nSessions := min(runtime.NumCPU(), len(s.lineages))
	s.sessions = make([][]int, nSessions)
	for i, li := range b.rng().Perm(len(s.lineages)) {
		s.sessions[i%nSessions] = append(s.sessions[i%nSessions], li)
	}

	var r e2eRun
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d, err = b.startDaemon(i); err != nil {
			return err
		}
		s.each(func(ls []int) {
			for _, li := range ls {
				s.submit(d, li, 0, false)
			}
		})
		user, err := liveUserCPU(d.cmd.Process.Pid)
		if err != nil {
			d.kill()
			return err
		}
		r.setupCPU = append(r.setupCPU, user.Seconds())
		if i < setupRepeats-1 {
			if _, err := d.stop(); err != nil {
				return fmt.Errorf("stopping set-up daemon: %w", err)
			}
		}
	}
	defer d.kill()

	before, err := d.counters()
	if err != nil {
		return err
	}
	cpu0 := d.cpu()
	rounds := min(b.units(serveRound), maxRounds)
	r.wall, err = b.measure(rounds, func(round int) error {
		c0 := d.cpu()
		s.each(func(ls []int) {
			for c := range cycle {
				for _, li := range ls {
					s.submit(d, li, 1+round*len(cycle)+c, true)
				}
			}
		})
		n := len(cycle) * len(s.lineages)
		r.apps += n
		r.unitCPU = append(r.unitCPU, perAppMS(d.cpu()-c0, n))
		return nil
	})
	if err != nil {
		return err
	}
	r.cpu = d.cpu() - cpu0
	after, err := d.counters()
	if err != nil {
		return err
	}
	s.checkTraffic(before, after, rounds)

	u, err := d.stop()
	b.check(err == nil, "daemon drain: %v", err)
	r.peakRSS = []float64{float64(u.maxRSS)}

	if b.trace {
		// Round 0's distinct revisions, analyzed cold in-process.
		var apps []replicaApp
		for _, l := range s.lineages {
			for idx := 1; idx <= len(cycle); idx++ {
				if l.revs[idx].kind == kindResub {
					continue
				}
				key := fmt.Sprintf("%s/%d", l.name, idx)
				apps = append(apps, replicaApp{key, l.revs[idx].raw, s.got[key].races})
			}
		}
		b.replicate(apps, perAppMS(r.cpu, r.apps))
	}
	b.summarize(r)
	b.fillLayers()
	return nil
}

// checkTraffic requires the daemon's own counters to show exactly the
// planned mix over the timed rounds, and sets the serve and incremental
// per-layer metrics from them.
func (s *serveEdit) checkTraffic(before, after map[string]float64, rounds int) {
	delta := func(name string) float64 { return after["sierra_"+name] - before["sierra_"+name] }
	plan := map[string]int{}
	pairs := 0 // racy pairs of the incrementally absorbed revisions
	for _, l := range s.lineages {
		for idx := 1; idx <= rounds*len(cycle); idx++ {
			k := l.revs[idx].kind
			plan[k]++
			if k == kindTier1 || k == kindTier2 {
				pairs += s.got[fmt.Sprintf("%s/%d", l.name, idx)].racyPairs
			}
		}
	}
	for _, c := range []struct {
		counter string
		want    int
	}{
		{"incremental_applies", plan[kindTier1]},
		{"incremental_stage_applies", plan[kindTier2]},
		{"incremental_stage_fallbacks", plan[kindCold]},
		{"incremental_fallbacks", plan[kindTier2] + plan[kindCold]},
		{"serve_report_hits", plan[kindResub]},
	} {
		got := delta(c.counter)
		s.b.check(got == float64(c.want), "traffic: /metrics %s moved by %v, plan says %d", c.counter, got, c.want)
	}
	analyzed := float64(plan[kindTier1] + plan[kindTier2] + plan[kindCold])
	b := s.b
	b.setLayer("serve.submit_ms_p50", "ms", median(s.submitMS))
	b.setLayer("serve.report_ms_p50", "ms", median(s.reportMS))
	b.setLayer("serve.report_ms_p90", "ms", quantile(s.reportMS, 0.9))
	b.setLayer("serve.store_hit_share", "ratio", ratio(delta("serve_report_hits"), delta("serve_submissions")))
	b.setLayer("incremental.tier1_share", "ratio", ratio(delta("incremental_applies"), analyzed))
	b.setLayer("incremental.tier2_share", "ratio", ratio(delta("incremental_stage_applies"), analyzed))
	b.setLayer("incremental.cold_share", "ratio", ratio(delta("incremental_stage_fallbacks"), analyzed))
	b.setLayer("incremental.rerefuted_frac", "ratio", ratio(delta("incremental_pairs_rerefuted"), float64(pairs)))
}
