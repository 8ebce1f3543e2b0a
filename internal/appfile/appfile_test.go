package appfile

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/ir"
)

// roundTrip serializes and reparses an app.
func roundTrip(t *testing.T, app *apk.App) *apk.App {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, app); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v\n%s", err, buf.String())
	}
	return back
}

func appClasses(app *apk.App) int {
	n := 0
	for _, c := range app.Program.Classes() {
		if !c.Framework {
			n++
		}
	}
	return n
}

func TestRoundTripHandmadeApps(t *testing.T) {
	for _, mk := range []func() *apk.App{corpus.NewsApp, corpus.DatabaseApp, corpus.SudokuTimerApp, corpus.NullGuardApp} {
		app := mk()
		back := roundTrip(t, app)
		if back.Name != app.Name {
			t.Errorf("name %q != %q", back.Name, app.Name)
		}
		if appClasses(back) != appClasses(app) {
			t.Errorf("%s: class count %d != %d", app.Name, appClasses(back), appClasses(app))
		}
		if len(back.Manifest.Activities) != len(app.Manifest.Activities) {
			t.Errorf("%s: activities differ", app.Name)
		}
		if len(back.Layouts) != len(app.Layouts) {
			t.Errorf("%s: layouts differ", app.Name)
		}
	}
}

func TestRoundTripPreservesAnalysisResults(t *testing.T) {
	orig := corpus.NewsApp()
	back := roundTrip(t, corpus.NewsApp())
	r1 := core.Analyze(orig, core.Options{})
	r2 := core.Analyze(back, core.Options{})
	if r1.NumActions() != r2.NumActions() {
		t.Errorf("actions %d != %d", r1.NumActions(), r2.NumActions())
	}
	if len(r1.RacyPairs) != len(r2.RacyPairs) {
		t.Errorf("pairs %d != %d", len(r1.RacyPairs), len(r2.RacyPairs))
	}
	if r1.TrueRaces() != r2.TrueRaces() {
		t.Errorf("races %d != %d", r1.TrueRaces(), r2.TrueRaces())
	}
}

func TestRoundTripGeneratedApp(t *testing.T) {
	row, _ := corpus.RowByName("VuDroid")
	app, _ := corpus.NamedApp(row)
	back := roundTrip(t, app)
	if appClasses(back) != appClasses(app) {
		t.Errorf("class count %d != %d", appClasses(back), appClasses(app))
	}
}

func TestRoundTripStatements(t *testing.T) {
	orig := corpus.SudokuTimerApp()
	back := roundTrip(t, corpus.SudokuTimerApp())
	// Statement-level equality via the canonical printer.
	var b1, b2 bytes.Buffer
	if err := Write(&b1, orig); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, back); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("second round trip not a fixpoint")
	}
	for _, want := range []string{"if flag == bool true", "store a mAccumTime t", "call v _ v android.view.View postDelayed this delay"} {
		if !strings.Contains(b1.String(), want) {
			t.Errorf("serialization missing %q", want)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"view main 1 T -1",                 // view before layout
		"field C f",                        // field before class
		"block C m 0",                      // block outside method
		"class A\nmethod A m\nblock A m 5", // out-of-order block
		"class A\nmethod A m\nblock A m 0\nfrobnicate x",
		"app x\nactivity Missing", // validation: unknown activity class
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

// cyclicApps are the cyclic class hierarchies Read must reject: the
// interface cycle once overflowed the stack in IsSubtype, and the
// superclass cycle never terminated.
var cyclicApps = []struct {
	name, src, cycle string
}{
	{"interface", `
app cyc
activity Act0
class I1 implements I2
class I2 implements I1
class Act0 extends android.app.Activity implements I1
`, "I1 -> I2 -> I1"},
	{"superclass", `
app cyc
activity Act0
class A extends B
class B extends A
class Act0 extends A
`, "A -> B -> A"},
}

func TestReadRejectsCyclicHierarchy(t *testing.T) {
	for _, tc := range cyclicApps {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.src))
			if err == nil || !strings.Contains(err.Error(), "class hierarchy cycle: "+tc.cycle) {
				t.Fatalf("Read = %v, want the cycle %s", err, tc.cycle)
			}
		})
	}
}

// TestReadDeepHierarchy reads an app whose activity sits at the bottom
// of a 20,000-class superclass chain (about 0.6 MB of input) and queries
// its hierarchy. The class-hierarchy index must stay linear in the
// input: one that stored every class's ancestor set would need about
// 2e8 entries here.
func TestReadDeepHierarchy(t *testing.T) {
	const depth = 20000
	var src strings.Builder
	fmt.Fprintf(&src, "app deep\nactivity C%05d\nclass C00000 extends android.app.Activity\n", depth-1)
	for i := 1; i < depth; i++ {
		fmt.Fprintf(&src, "class C%05d extends C%05d\n", i, i-1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	app, err := Read(strings.NewReader(src.String()))
	if err != nil {
		t.Fatal(err)
	}
	p := app.Program
	if n := len(p.SubclassesOf("android.app.Activity")); n != depth {
		t.Errorf("SubclassesOf(Activity) = %d classes, want %d", n, depth)
	}
	if n := len(p.SubclassesOf("C09999")); n != depth-10000 {
		t.Errorf("SubclassesOf(C09999) = %d classes, want %d", n, depth-10000)
	}
	if !p.IsSubtype(fmt.Sprintf("C%05d", depth-1), "C00000") || p.IsSubtype("C00000", "C00001") {
		t.Error("IsSubtype disagrees with the chain")
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Errorf("reading and querying allocated %d MB, want at most 64", alloc>>20)
	}
}

func TestReadMinimalApp(t *testing.T) {
	src := `
app mini
package com.mini
activity Main layout l
layout l
view l 1 android.view.View -1
view l 2 android.widget.Button 1
xmlcb l 2 onClick onTap
class Main extends android.app.Activity
method Main onCreate
block Main onCreate 0
ret _
method Main onTap params v
block Main onTap 0
ret _
`
	app, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "mini" || len(app.Manifest.Activities) != 1 {
		t.Fatalf("bad app %+v", app.Manifest)
	}
	if v := app.FindView("l", 2); v == nil || v.XMLCallbacks["onClick"] != "onTap" {
		t.Fatal("xml callback lost")
	}
	res := core.Analyze(app, core.Options{})
	if res.NumHarnesses() != 1 {
		t.Fatal("parsed app not analyzable")
	}
	found := false
	for _, a := range res.Registry.Actions() {
		if a.Callback == "onTap" {
			found = true
		}
	}
	if !found {
		t.Error("XML callback action missing after parse")
	}
}

func TestStmtLineCoversAllKinds(t *testing.T) {
	stmts := []ir.Stmt{
		&ir.New{Dst: "a", Class: "C", Site: -1},
		&ir.Const{Dst: "a", Kind: ir.ConstString, Str: "hi there"},
		&ir.BinOp{Dst: "a", Op: ir.OpXor, A: "b", B: "c"},
		&ir.Invoke{Kind: ir.InvokeStatic, Class: "C", Method: "m"},
		&ir.If{A: "x", Op: ir.CmpLE, B: ir.VarOperand("y")},
	}
	for _, s := range stmts {
		line := StmtLine(s)
		got, err := parseStmt(strings.Fields(line), line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if StmtLine(got) != line {
			t.Errorf("round trip %q -> %q", line, StmtLine(got))
		}
	}
}

func TestReadNeverPanicsOnTruncation(t *testing.T) {
	// Any line-prefix of a valid file must either parse or error — never
	// panic. This guards every "statement before block"-style invariant.
	var buf bytes.Buffer
	if err := Write(&buf, corpus.SudokuTimerApp()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	for n := 0; n <= len(lines); n += 3 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at %d lines: %v", n, r)
				}
			}()
			_, _ = Read(strings.NewReader(strings.Join(lines[:n], "\n")))
		}()
	}
}

func TestReadNeverPanicsOnFieldMutations(t *testing.T) {
	// Dropping random tokens from statement lines must not panic.
	var buf bytes.Buffer
	if err := Write(&buf, corpus.NewsApp()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	for i := 3; i < len(lines); i++ {
		mutated := append([]string(nil), lines...)
		f := strings.Fields(mutated[i])
		if len(f) > 1 {
			mutated[i] = strings.Join(f[:len(f)-1], " ") // drop last token
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic mutating line %d (%q): %v", i, lines[i], r)
				}
			}()
			_, _ = Read(strings.NewReader(strings.Join(mutated, "\n")))
		}()
	}
}
