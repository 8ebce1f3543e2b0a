package ir_test

import (
	"bytes"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/corpus"
	"sierra/internal/harness"
	"sierra/internal/ir"
)

// TestHierarchyIndexOnApps checks the class-hierarchy index against the
// reference walks on generated apps, before and after harness
// generation adds its synthetic classes (the in-place extension path).
func TestHierarchyIndexOnApps(t *testing.T) {
	row, ok := corpus.RowByName("OpenSudoku")
	if !ok {
		t.Fatal("no OpenSudoku row")
	}
	family, ok := corpus.ScenarioByName("alias-trap-deep")
	if !ok {
		t.Fatal("no alias-trap-deep family")
	}
	for _, tc := range []struct {
		name string
		app  func() *apk.App
	}{
		{"table2", func() *apk.App { app, _ := corpus.NamedApp(row); return app }},
		{"stream", func() *apk.App { app, _ := family.Generate("alias", 7, nil); return app }},
		{"stagedemo", func() *apk.App {
			app, err := appfile.Read(bytes.NewReader(corpus.StageDemoText(8, corpus.StageDemoEdit{})))
			if err != nil {
				t.Fatal(err)
			}
			return app
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app := tc.app()
			if err := ir.CheckHierarchyIndex(app.Program); err != nil {
				t.Fatalf("before harness: %v", err)
			}
			n := app.Program.NumClasses()
			hs := harness.Generate(app)
			if app.Program.NumClasses() != n+len(hs) || len(hs) == 0 {
				t.Fatalf("harness added %d classes for %d harnesses", app.Program.NumClasses()-n, len(hs))
			}
			if err := ir.CheckHierarchyIndex(app.Program); err != nil {
				t.Fatalf("after harness: %v", err)
			}
		})
	}
}
