package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Golden files, recorded from the code under test by --record and
// checked by every run (see README.md "Re-recording the golden files"):
//
//	golden/table2.tsv        app, report sha256 at >= 2 CPUs, at 1 CPU
//	golden/batch-small.sha256  sha256 of the canonical -verdicts TSV
//	golden/serve-edit.tsv    lineage, revision, report sha256
const goldenDir = "perfbench/golden"

// readTSV reads a golden table: tab-separated rows, '#' comments.
func readTSV(path string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows [][]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rows = append(rows, strings.Split(line, "\t"))
	}
	return rows, sc.Err()
}

func writeGolden(b *bench, name, header string, rows []string) error {
	body := header + strings.Join(rows, "\n") + "\n"
	path := filepath.Join(b.root, goldenDir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s (%d rows)\n", path, len(rows))
	return nil
}

// recordGolden re-records every golden file from the built CLIs.
func recordGolden(b *bench) error {
	if err := recordTable2(b); err != nil {
		return fmt.Errorf("table2: %w", err)
	}
	if err := recordBatchSmall(b); err != nil {
		return fmt.Errorf("batch-small: %w", err)
	}
	if err := recordServeEdit(b); err != nil {
		return fmt.Errorf("serve-edit: %w", err)
	}
	return nil
}

// recordTable2 records each Table-2 app's one-shot report digest twice:
// as the CLI renders it with its default refutation workers on a
// multi-core host, and as it renders it on one CPU, where the default
// worker count selects the sequential refuter (whose reports differ only
// in explored-path counts).
func recordTable2(b *bench) error {
	dir := filepath.Join(b.work, "table2")
	if _, err := runSUT(b.sut("corpusgen", "-all", "-out", dir)); err != nil {
		return err
	}
	var rows []string
	for _, name := range table2Names() {
		var sums []string
		for _, oneCPU := range []bool{false, true} {
			out := filepath.Join(b.work, name+".json")
			cmd := b.sut("sierra", "-file", filepath.Join(dir, name+".app"), "-report-json", out)
			if oneCPU {
				cmd.Env = append(cmd.Env, "GOMAXPROCS=1")
			}
			if _, err := runSUT(cmd); err != nil {
				return err
			}
			raw, err := os.ReadFile(out)
			if err != nil {
				return err
			}
			sums = append(sums, sha256Hex(raw))
		}
		rows = append(rows, name+"\t"+strings.Join(sums, "\t"))
	}
	return writeGolden(b, "table2.tsv",
		"# app\treport sha256 (>= 2 CPUs)\treport sha256 (1 CPU)\n", rows)
}

func recordBatchSmall(b *bench) error {
	dir := filepath.Join(b.work, "corpus")
	if _, err := runSUT(b.sut("corpusgen", "-config", batchSmallConfig(b), "-out", dir)); err != nil {
		return err
	}
	out := filepath.Join(b.work, "verdicts.tsv")
	if _, err := runSUT(b.sut("sierra", "-batch", filepath.Join(dir, "*.app"), "-verdicts", out)); err != nil {
		return err
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	return writeGolden(b, "batch-small.sha256", "", []string{sha256Hex(canonicalVerdicts(raw))})
}

// recordServeEdit records every distinct revision of every lineage's
// plan with the one-shot CLI under the per-pair-pure refuter settings
// the daemon pins (two refutation workers, as scripts/servesmoke.sh
// uses for its parity check), independently of the daemon.
func recordServeEdit(b *bench) error {
	var rows []string
	for _, l := range planLineages() {
		for i, rev := range l.revs {
			if rev.kind == kindResub {
				continue
			}
			in := filepath.Join(b.work, "rev.app")
			out := filepath.Join(b.work, "rev.json")
			if err := os.WriteFile(in, rev.raw, 0o644); err != nil {
				return err
			}
			if _, err := runSUT(b.sut("sierra", "-file", in, "-refute-jobs", "2", "-report-json", out)); err != nil {
				return err
			}
			raw, err := os.ReadFile(out)
			if err != nil {
				return err
			}
			rows = append(rows, fmt.Sprintf("%s\t%d\t%s\t%s", l.name, i, rev.kind, sha256Hex(raw)))
		}
	}
	return writeGolden(b, "serve-edit.tsv", "# lineage\trevision\tkind\treport sha256\n", rows)
}

// canonicalVerdicts sorts a -verdicts TSV's rows by app name after
// stripping the per-run order prefix (see orderPrefix), so the digest
// depends on the verdicts only, not on the order the seed chose.
func canonicalVerdicts(raw []byte) []byte {
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 {
		return nil
	}
	rows := lines[1:]
	for i, r := range rows {
		rows[i] = stripOrderPrefix(r)
	}
	sort.Strings(rows)
	return []byte(lines[0] + "\n" + strings.Join(rows, "\n") + "\n")
}
