package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"sierra/internal/corpus"
)

func table2Names() []string {
	var names []string
	for _, row := range corpus.PaperRows() {
		names = append(names, row.Name)
	}
	return names
}

// reportDoc is the part of a sierra-report/1 document the checks read.
type reportDoc struct {
	RacyPairs int `json:"racy_pairs"`
	Races     []struct {
		Field string `json:"field"`
	} `json:"races"`
}

// table2Pass is the nominal wall time of one pass over the 20 apps.
const table2Pass = 6500 * time.Millisecond

// runTable2 is the paper's own dataset: the 20 Table-2 apps, each
// analyzed by its own `sierra -file X.app -report-json out` process, in
// a closed loop with nproc apps in flight. With one in flight, the
// idle core's share of Go's GC and scheduler work made the per-app CPU
// follow the host's load (it drifted 470 to 565 ms over ten runs); with
// every core busy it holds steady, as on batch-small. The seed orders
// each pass.
func runTable2(b *bench) error {
	names := table2Names()
	// The CLI's default refutation workers follow the CPU count, and at
	// one CPU they select the sequential refuter, whose reports differ in
	// explored-path counts; so only the column for this host's CPU count
	// is accepted.
	col := 1
	if runtime.NumCPU() == 1 {
		col = 2
	}
	golden := map[string]string{}
	rows, err := readTSV(filepath.Join(b.root, goldenDir, "table2.tsv"))
	if err != nil {
		return err
	}
	for _, r := range rows {
		golden[r[0]] = r[col]
	}
	// The planted true races, straight from the generator: every one
	// must be reported, whatever the analyzer's golden digest says.
	truth := map[string][]string{}
	for _, row := range corpus.PaperRows() {
		_, gt := corpus.NamedApp(row)
		truth[row.Name] = gt.SortedTrueFields()
	}

	var r e2eRun
	var dir string
	for i := 0; i < setupRepeats; i++ {
		dir = filepath.Join(b.work, fmt.Sprintf("corpus%d", i))
		u, err := runSUT(b.sut("corpusgen", "-all", "-out", dir))
		if err != nil {
			return err
		}
		r.setupCPU = append(r.setupCPU, u.user.Seconds())
	}

	races := map[string]int{}
	var passRSS int64
	var mu sync.Mutex // guards r, races, passRSS and b's counts
	oneShot := func(name string) {
		out := filepath.Join(b.work, name+".json")
		u, err := runSUT(b.sut("sierra", "-file", filepath.Join(dir, name+".app"), "-report-json", out))
		var raw []byte
		if err == nil {
			raw, err = os.ReadFile(out)
		}
		var doc reportDoc
		if err == nil {
			err = json.Unmarshal(raw, &doc)
		}
		mu.Lock()
		defer mu.Unlock()
		r.cpu += u.cpu
		r.apps++
		r.unitCPU = append(r.unitCPU, perAppMS(u.cpu, 1))
		passRSS = max(passRSS, u.maxRSS)
		if err != nil {
			b.check(false, "%s: %v", name, err)
			return
		}
		races[name] = len(doc.Races)
		missing := missingFields(truth[name], doc)
		b.check(sha256Hex(raw) == golden[name] && len(missing) == 0,
			"%s: report digest %s not golden, or true races missing on %v", name, sha256Hex(raw)[:12], missing)
	}
	rng := b.rng()
	r.wall, err = b.measure(b.units(table2Pass), func(int) error {
		queue := make(chan string, len(names)) // holds the whole pass
		for _, i := range rng.Perm(len(names)) {
			queue <- names[i]
		}
		close(queue)
		var wg sync.WaitGroup
		for w := 0; w < runtime.NumCPU(); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for name := range queue {
					oneShot(name)
				}
			}()
		}
		wg.Wait()
		r.peakRSS = append(r.peakRSS, float64(passRSS))
		passRSS = 0
		return nil
	})
	if err != nil {
		return err
	}

	if b.trace {
		var apps []replicaApp
		for _, name := range names {
			raw, err := os.ReadFile(filepath.Join(dir, name+".app"))
			if err != nil {
				return err
			}
			apps = append(apps, replicaApp{name, raw, races[name]})
		}
		b.replicate(apps, perAppMS(r.cpu, r.apps))
	}
	b.summarize(r)
	b.fillLayers()
	return nil
}

// missingFields lists the true-race fields no report names. A report's
// field is ".name" (or "Class.name" for statics); ground truth holds
// bare names.
func missingFields(want []string, doc reportDoc) []string {
	got := map[string]bool{}
	for _, race := range doc.Races {
		got[race.Field[strings.LastIndexByte(race.Field, '.')+1:]] = true
	}
	var missing []string
	for _, f := range want {
		if !got[f] {
			missing = append(missing, f)
		}
	}
	return missing
}

func perAppMS(cpu time.Duration, apps int) float64 {
	return ratio(float64(cpu.Microseconds())/1e3, float64(apps))
}
