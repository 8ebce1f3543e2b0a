package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func batchSmallConfig(b *bench) string {
	return filepath.Join(b.root, "perfbench", "batch-small.cfg")
}

// orderPrefix names the file at rank i of the seed's order; the batch
// CLI analyzes files in name order.
func orderPrefix(i int) string { return fmt.Sprintf("%04d_", i) }

// stripOrderPrefix undoes orderPrefix on a -verdicts row or app name.
func stripOrderPrefix(s string) string {
	if len(s) > 5 && s[4] == '_' {
		if _, err := strconv.Atoi(s[:4]); err == nil {
			return s[5:]
		}
	}
	return s
}

// batchSmallRun is the nominal wall time of one `sierra -batch` run.
const batchSmallRun = 10 * time.Second

// runBatchSmall materializes a fixed ~1,500-app corpus of small apps
// with `corpusgen -config` and analyzes it with one `sierra -batch`
// process per unit. The seed permutes the order the files reach the
// batch engine.
func runBatchSmall(b *bench) error {
	want, err := os.ReadFile(filepath.Join(b.root, goldenDir, "batch-small.sha256"))
	if err != nil {
		return err
	}
	var r e2eRun
	var dir string
	for i := 0; i < setupRepeats; i++ {
		dir = filepath.Join(b.work, fmt.Sprintf("corpus%d", i))
		u, err := runSUT(b.sut("corpusgen", "-config", batchSmallConfig(b), "-out", dir))
		if err != nil {
			return err
		}
		r.setupCPU = append(r.setupCPU, u.user.Seconds())
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.app"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("corpusgen wrote no apps into %s", dir)
	}
	sort.Strings(files)
	paths := map[string]string{} // app file name without .app -> its renamed path
	for rank, i := range b.rng().Perm(len(files)) {
		base := filepath.Base(files[i])
		p := filepath.Join(dir, orderPrefix(rank)+base)
		if err := os.Rename(files[i], p); err != nil {
			return err
		}
		paths[strings.TrimSuffix(base, ".app")] = p
	}

	races := map[string]int{}
	out := filepath.Join(b.work, "verdicts.tsv")
	r.wall, err = b.measure(b.units(batchSmallRun), func(int) error {
		u, err := runSUT(b.sut("sierra", "-batch", filepath.Join(dir, "*.app"), "-verdicts", out))
		r.cpu += u.cpu
		r.apps += len(files)
		r.unitCPU = append(r.unitCPU, perAppMS(u.cpu, len(files)))
		r.peakRSS = append(r.peakRSS, float64(u.maxRSS))
		raw, rerr := os.ReadFile(out)
		if err != nil || rerr != nil {
			b.failed += len(files)
			b.attempted += len(files)
			fmt.Fprintf(os.Stderr, "perfbench: FAIL batch run: %v %v\n", err, rerr)
			return nil
		}
		canon := canonicalVerdicts(raw)
		ok := sha256Hex(canon) == strings.TrimSpace(string(want))
		for _, row := range strings.Split(strings.TrimRight(string(canon), "\n"), "\n")[1:] {
			f := strings.Split(row, "\t")
			n, err := strconv.Atoi(f[len(f)-2])
			b.check(ok && err == nil && f[1] == "ok", "batch-small %s: verdicts differ from the golden digest", f[0])
			races[f[0]] = n
		}
		return nil
	})
	if err != nil {
		return err
	}

	if b.trace {
		var apps []replicaApp
		for _, name := range sortedKeys(races) {
			raw, err := os.ReadFile(paths[name])
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
