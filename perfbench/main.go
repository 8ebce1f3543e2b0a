// Command perfbench is the repository's end-to-end benchmark. It runs
// the real CLIs (corpusgen, sierra -file, sierra -batch, sierra serve)
// with default flags on one named workload, times them by the CPU they
// consume, checks every output against recorded golden digests, and
// prints one JSON result line. With --trace 1 it also replays the
// workload's apps in-process through each analysis layer and reports
// per-layer numbers instead.
//
// Run it from the repository root through run.sh, which builds the
// CLIs and this program first:
//
//	sh perfbench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
//	sh perfbench/run.sh --workload all      # every workload, one result line each
//	sh perfbench/run.sh --record       # re-record perfbench/golden/*
//
// See perfbench/README.md for why the workloads and metrics are what
// they are.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one benchmark run: its inputs, its working directory, and
// everything it has measured and checked so far.
type bench struct {
	root    string // repository checkout (the working directory)
	bin     string // built CLIs
	work    string // scratch directory for this run, removed at exit
	seed    int64
	seconds float64
	trace   bool

	attempted, failed int
	e2e               map[string]metric
	layer             map[string]metric
}

func (b *bench) rng() *rand.Rand { return rand.New(rand.NewSource(b.seed)) }

// check records one checked operation; a false ok counts it as failed
// and prints why on standard error.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

func (b *bench) setE2E(name, unit string, v float64)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64) { b.layer[name] = metric{v, unit} }

// workloads maps each workload name to the function that runs it. A
// workload measures the end-to-end metrics, and with b.trace also the
// per-layer ones.
var workloads = map[string]func(*bench) error{
	"table2":      runTable2,
	"batch-small": runBatchSmall,
	"serve-edit":  runServeEdit,
}

func main() {
	var (
		workload = flag.String("workload", "", "workloads to run, comma-separated: table2, batch-small, serve-edit, or all")
		seed     = flag.Int64("seed", 1, "input seed (orders the fixed inputs; the same seed gives the same run)")
		seconds  = flag.Float64("seconds", 20, "sets how much work a run measures: this many seconds' worth on the reference host")
		trace    = flag.Int("trace", 0, "1 = also run the traced in-process replica and print per-layer metrics")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the built sierra and corpusgen binaries")
		record   = flag.Bool("record", false, "re-record perfbench/golden from the current code and exit")
	)
	flag.Parse()

	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	binDir, err := filepath.Abs(*bin)
	if err != nil {
		fatal(err)
	}
	names := strings.Split(*workload, ",")
	if *workload == "all" {
		names = []string{"table2", "batch-small", "serve-edit"}
	}
	for _, name := range names {
		if workloads[name] == nil && !*record {
			fatal(fmt.Errorf("unknown workload %q; want table2, batch-small, serve-edit or all", name))
		}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want --seconds > 0 and --trace 0 or 1"))
	}
	if *record {
		names = []string{""}
	}
	for _, name := range names {
		b := &bench{root: root, bin: binDir, seed: *seed, seconds: *seconds,
			trace: *trace == 1, e2e: map[string]metric{}, layer: map[string]metric{}}
		if err := runOne(b, name, *record); err != nil {
			fatal(err)
		}
	}
}

// runOne runs one workload (or the golden recording) in a fresh scratch
// directory and prints its results; the last line is the JSON result.
func runOne(b *bench, name string, record bool) error {
	var err error
	if b.work, err = os.MkdirTemp(filepath.Join(b.root, ".bench_build"), "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	if record {
		return recordGolden(b)
	}
	if err := workloads[name](b); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	metrics := b.e2e
	if b.trace {
		metrics = b.layer
	}
	printTable(metrics, b)
	line, err := json.Marshal(map[string]any{"context": runContext(b, name)})
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		return err
	}
	saveResult(b, name, line, res)
	fmt.Println(string(line))
	fmt.Println(string(res))
	return nil
}

// runContext is what identifies a run afterwards: the host, the
// toolchain, the code, and how much CPU the hypervisor stole meanwhile.
func runContext(b *bench, workload string) map[string]any {
	sha, _ := gitSHA(b.root)
	return map[string]any{
		"workload":        workload,
		"seed":            b.seed,
		"seconds":         b.seconds,
		"trace":           b.trace,
		"nproc":           runtime.NumCPU(),
		"go":              runtime.Version(),
		"git_sha":         sha,
		"src_sha256":      sourceDigest(b.root),
		"host.steal_frac": b.layer["host.steal_frac"].Value,
		"failed_frac":     float64(b.failed) / math.Max(1, float64(b.attempted)),
	}
}

// saveResult keeps a copy of the context and result lines under
// .bench_build/results so a noisy run can be traced back later.
func saveResult(b *bench, workload string, lines ...[]byte) {
	dir := filepath.Join(b.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	name := fmt.Sprintf("%s-seed%d-trace%t-%s.json", workload, b.seed, b.trace, time.Now().UTC().Format("20060102T150405"))
	var buf []byte
	for _, l := range lines {
		buf = append(append(buf, l...), '\n')
	}
	_ = os.WriteFile(filepath.Join(dir, name), buf, 0o644) // best effort: the result is on stdout too
}

// printTable prints every metric by name with its unit on standard
// error, sorted by name.
func printTable(m map[string]metric, b *bench) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-28s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "%-28s %14d of %d attempted\n", "failed", b.failed, b.attempted)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// interquartileMean is the mean of the middle half of xs: a typical
// sample, like the median, but averaged over half the samples rather
// than read from one or two.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return ratio(sum, float64(len(mid)))
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// exercised).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
