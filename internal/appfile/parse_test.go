package appfile

import (
	"bufio"
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestSplitLineMatchesStrings checks the tokenizer against the
// strings.TrimSpace / strings.Fields pair it replaces, including the
// ASCII control spaces and the Unicode spaces that send a line down
// the fallback path.
func TestSplitLineMatchesStrings(t *testing.T) {
	for _, l := range []string{
		"",
		"   ",
		"\t\v\f\r ",
		"call v _ r C m a b",
		"  call\tv _  r\tC m  ",
		"new\va\fC",
		"move a b\r",
		"  # a comment",
		"#",
		"move # b",
		"move\u0085a\u00a0b\u2003",
		"\u2003move a b",
		"\u00a0# a comment",
		"\u2003\u0085",
		"const s str \"caf\u00e9 au lait\"",
		"move a\xffb \xfe",
	} {
		var want []string
		if trimmed := strings.TrimSpace(l); trimmed != "" && trimmed[0] != '#' {
			want = strings.Fields(trimmed)
		}
		line, got := splitLine([]byte(l), make([]string, 3))
		if !slices.Equal(got, want) {
			t.Errorf("splitLine(%q) fields = %q, want %q", l, got, want)
		}
		if wantLine := strings.TrimSpace(l); len(want) > 0 && line != wantLine {
			t.Errorf("splitLine(%q) line = %q, want %q", l, line, wantLine)
		}
		if len(want) == 0 && line != "" {
			t.Errorf("splitLine(%q) line = %q, want none", l, line)
		}
	}
}

// TestParseLineEndings parses one app with LF, CRLF, no final newline
// and Unicode spaces; all must yield the same app.
func TestParseLineEndings(t *testing.T) {
	src := strings.TrimPrefix(miniApp, "\n")
	want := mustBytes(t, []byte(src))
	for name, raw := range map[string]string{
		"crlf":       strings.ReplaceAll(src, "\n", "\r\n"),
		"no-newline": strings.TrimSuffix(src, "\n"),
		"unicode":    strings.ReplaceAll(src, "ret _", "ret\u00a0_\u2003\u0085"),
	} {
		if got := mustBytes(t, []byte(raw)); !bytes.Equal(got, want) {
			t.Errorf("%s: parsed to\n%s\nwant\n%s", name, got, want)
		}
	}
}

// miniApp is a small analyzable app.
const miniApp = `
app mini
activity Main
class Main extends android.app.Activity
method Main onCreate
block Main onCreate 0
const s str "two  spaces"
ret _
`

func mustBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	app, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Bytes(app)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParseLineLimit keeps the line-length limit of the bufio.Scanner
// the parser used to read through: lines of 1 MiB or more are
// rejected, with or without a final newline, and nothing shorter is.
func TestParseLineLimit(t *testing.T) {
	for _, n := range []int{1<<20 - 1, 1 << 20, 1<<20 + 1} {
		for _, tail := range []string{"\n", ""} {
			raw := []byte("app x\n#" + strings.Repeat("x", n-1) + tail)
			sc := bufio.NewScanner(bytes.NewReader(raw))
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
			}
			_, err := Parse(raw)
			if (sc.Err() != nil) != (err != nil) {
				t.Errorf("line of %d bytes, tail %q: Parse error %v, scanner error %v", n, tail, err, sc.Err())
			}
			if err != nil && (!errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "line 2")) {
				t.Errorf("line of %d bytes: error %q, want bufio.ErrTooLong at line 2", n, err)
			}
		}
	}
}

// FuzzParseApp requires Parse never to panic, and the canonical
// rendering of any accepted input to be a fixpoint: it parses, and
// renders back to the same bytes.
func FuzzParseApp(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		app, err := Parse(raw)
		if err != nil {
			return
		}
		once, err := Bytes(app)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(once)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, once)
		}
		twice, err := Bytes(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("canonical form is not a fixpoint:\n%s\nrenders as\n%s", once, twice)
		}
	})
}
