package actions

import (
	"fmt"
	"runtime"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/corpus"
	"sierra/internal/frontend"
	"sierra/internal/harness"
	"sierra/internal/ir"
	"sierra/internal/pointer"
)

func discover(t *testing.T, app *apk.App, pol pointer.Policy) (*Registry, *pointer.Result) {
	t.Helper()
	hs := harness.Generate(app)
	return Analyze(app, hs, pol)
}

func find(reg *Registry, kind Kind, callback string) *Action {
	for _, a := range reg.Actions() {
		if a.Kind == kind && a.Callback == callback {
			return a
		}
	}
	return nil
}

func findInstance(reg *Registry, callback string, instance int) *Action {
	for _, a := range reg.Actions() {
		if a.Kind == KindLifecycle && a.Callback == callback && a.Instance == instance {
			return a
		}
	}
	return nil
}

func TestNewsAppActionDiscovery(t *testing.T) {
	app := corpus.NewsApp()
	reg, _ := discover(t, app, pointer.ActionSensitivePolicy{K: 2})

	// Harness root + 9 lifecycle sites + 2 GUI + 2 async = 14.
	var nLifecycle, nGUI int
	for _, a := range reg.Actions() {
		switch a.Kind {
		case KindLifecycle:
			nLifecycle++
		case KindGUI:
			nGUI++
		}
	}
	if nLifecycle != 9 {
		t.Errorf("lifecycle actions = %d, want 9 (7 callbacks, 2 duplicated)", nLifecycle)
	}
	if nGUI != 2 {
		t.Errorf("GUI actions = %d, want 2 (onClick, onScroll)", nGUI)
	}

	bg := find(reg, KindAsyncBackground, frontend.DoInBackground)
	if bg == nil {
		t.Fatal("doInBackground action missing")
	}
	if bg.Class != "LoaderTask" || !bg.Background() {
		t.Errorf("bad background action %v (looper %d)", bg, bg.Looper)
	}
	post := find(reg, KindAsyncPost, frontend.OnPostExecute)
	if post == nil {
		t.Fatal("onPostExecute action missing")
	}
	if !post.OnMainLooper() {
		t.Error("onPostExecute must run on the main looper")
	}

	// Spawn chain: onClick spawns doInBackground; doInBackground spawns
	// onPostExecute (Table 1 + AsyncTask semantics).
	onClick := find(reg, KindGUI, frontend.OnClick)
	if onClick == nil {
		t.Fatal("onClick action missing")
	}
	if len(bg.Spawns) == 0 || bg.Spawns[0].From != onClick.ID {
		t.Errorf("doInBackground spawns = %+v, want from onClick %d", bg.Spawns, onClick.ID)
	}
	if len(post.Spawns) == 0 || post.Spawns[0].From != bg.ID {
		t.Errorf("onPostExecute spawns = %+v, want from doInBackground %d", post.Spawns, bg.ID)
	}
	// AsyncTask-internal edge recorded.
	foundEdge := false
	for _, e := range reg.TaskEdges() {
		if e[0] == bg.ID && e[1] == post.ID {
			foundEdge = true
		}
	}
	if !foundEdge {
		t.Errorf("task edge bg→post missing: %v", reg.TaskEdges())
	}
}

func TestLifecycleActionsHaveHarnessSites(t *testing.T) {
	app := corpus.NewsApp()
	reg, _ := discover(t, app, pointer.ActionSensitivePolicy{K: 2})
	onStart1 := findInstance(reg, frontend.OnStart, 1)
	onStart2 := findInstance(reg, frontend.OnStart, 2)
	if onStart1 == nil || onStart2 == nil {
		t.Fatal("duplicated onStart actions missing")
	}
	if !onStart1.HarnessSite.Valid() || !onStart2.HarnessSite.Valid() {
		t.Error("lifecycle actions need harness sites")
	}
	if onStart1.HarnessSite == onStart2.HarnessSite {
		t.Error("the two onStart instances must have distinct sites")
	}
	if aid, ok := reg.ActionAt(onStart1.HarnessSite); !ok || aid != onStart1.ID {
		t.Error("ActionAt does not map the harness site back to the action")
	}
}

func TestDatabaseAppSystemAction(t *testing.T) {
	app := corpus.DatabaseApp()
	reg, res := discover(t, app, pointer.ActionSensitivePolicy{K: 2})

	recv := find(reg, KindSystem, frontend.OnReceive)
	if recv == nil {
		t.Fatal("onReceive action missing")
	}
	if recv.Class != "DataReceiver" || recv.Scope != -1 {
		t.Errorf("bad receiver action %v scope %d", recv, recv.Scope)
	}
	// Spawned from onCreate (registerReceiver call).
	onCreate := findInstance(reg, frontend.OnCreate, 1)
	spawnedFromOnCreate := false
	for _, s := range recv.Spawns {
		if s.From == onCreate.ID {
			spawnedFromOnCreate = true
		}
	}
	if !spawnedFromOnCreate {
		t.Errorf("onReceive spawns = %+v, want one from onCreate %d", recv.Spawns, onCreate.ID)
	}
	// The receiver's accesses must be reachable: its instances include
	// DataReceiver#onReceive.
	insts := reg.ActionInstances(res)
	foundBody := false
	for _, mk := range insts[recv.ID] {
		if mk.M.QualifiedName() == "DataReceiver#onReceive" {
			foundBody = true
		}
	}
	if !foundBody {
		t.Errorf("onReceive body not attributed to its action: %v", insts[recv.ID])
	}
}

func TestSudokuRunnableAction(t *testing.T) {
	app := corpus.SudokuTimerApp()
	reg, _ := discover(t, app, pointer.ActionSensitivePolicy{K: 2})
	run := find(reg, KindRunnable, frontend.Run)
	if run == nil {
		t.Fatal("posted runnable action missing")
	}
	if run.Class != "TimerRunnable" || !run.OnMainLooper() {
		t.Errorf("bad runnable action %v", run)
	}
	onResume := findInstance(reg, frontend.OnResume, 1)
	fromResume := false
	for _, s := range run.Spawns {
		if s.From == onResume.ID {
			fromResume = true
		}
	}
	if !fromResume {
		t.Errorf("runnable spawns = %+v, want one from onResume", run.Spawns)
	}
	// The postDelayed(this) inside run() posts from its own site, which
	// is a second runnable action whose spawns are delayed and come from
	// runnable actions (including itself — the self-repost loop).
	var repost *Action
	for _, a := range reg.Actions() {
		if a.Kind == KindRunnable && a != run {
			repost = a
		}
	}
	if repost == nil {
		t.Fatal("delayed re-post action missing")
	}
	delayedFromRunnable := false
	for _, s := range repost.Spawns {
		if s.Delayed && (s.From == run.ID || s.From == repost.ID) {
			delayedFromRunnable = true
		}
	}
	if !delayedFromRunnable {
		t.Errorf("re-post spawns = %+v, want delayed from a runnable action", repost.Spawns)
	}
}

func TestActionAttributionDisjointUnderAS(t *testing.T) {
	app := corpus.NewsApp()
	reg, res := discover(t, app, pointer.ActionSensitivePolicy{K: 2})
	insts := reg.ActionInstances(res)
	// Under action sensitivity each non-harness instance belongs to at
	// most one action (contexts carry the action id).
	owner := map[pointer.MKey]int{}
	for aid, keys := range insts {
		for _, mk := range keys {
			if mk.Ctx.Action != aid {
				continue // entry plumbing (harness main under root action)
			}
			if prev, dup := owner[mk]; dup && prev != aid {
				t.Errorf("instance %v attributed to both A%d and A%d", mk, prev, aid)
			}
			owner[mk] = aid
		}
	}
}

func TestAttributionSharedUnderHybrid(t *testing.T) {
	app := corpus.NewsApp()
	reg, res := discover(t, app, pointer.Hybrid{K: 2})
	insts := reg.ActionInstances(res)
	// Without action sensitivity the adapter's add/notify instances are
	// shared between actions — count instances attributed to 2+ actions.
	count := map[string]int{}
	for _, keys := range insts {
		for _, mk := range keys {
			count[mk.String()]++
		}
	}
	shared := 0
	for _, n := range count {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("hybrid attribution should share instances between actions")
	}
}

// handlerApp builds an app whose onCreate sends a constant-code message
// to a custom handler, exercising handler actions and the send-site
// constant extraction feeding on-demand constant propagation.
func handlerApp() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)

	hc := ir.NewClass("MyHandler", frontend.HandlerClass)
	hb := ir.NewMethodBuilder(frontend.HandleMessage, "m")
	hb.Load("w", "m", "what")
	hb.Ret("")
	hc.AddMethod(hb.Build())
	p.AddClass(hc)

	act := ir.NewClass("HActivity", frontend.ActivityClass)
	act.Fields = []string{"h"}
	b := ir.NewMethodBuilder(frontend.OnCreate)
	b.CallStatic("looper", frontend.LooperClass, frontend.GetMainLooper)
	b.NewObj("h", "MyHandler")
	b.CallSpecial("", "h", frontend.HandlerClass, "<init>", "looper")
	b.Store("this", "h", "h")
	b.CallStatic("msg", frontend.MessageClass, frontend.Obtain)
	b.Int("code", 5)
	b.Store("msg", "what", "code")
	b.Call("", "h", "MyHandler", frontend.SendMessage, "msg")
	b.Ret("")
	act.AddMethod(b.Build())
	p.AddClass(act)
	p.Finalize()

	return &apk.App{
		Name:    "handlerapp",
		Program: p,
		Manifest: apk.Manifest{
			Activities: []apk.Component{{Class: "HActivity"}},
		},
		Layouts: map[string]*apk.Layout{},
	}
}

func TestMessageWhatsExtraction(t *testing.T) {
	app := handlerApp()
	reg, res := discover(t, app, pointer.ActionSensitivePolicy{K: 2})
	msg := find(reg, KindMessage, frontend.HandleMessage)
	if msg == nil {
		t.Fatal("handleMessage action missing")
	}
	if len(msg.MsgWhats) != 1 || msg.MsgWhats[0] != 5 {
		t.Errorf("MsgWhats = %v, want [5]", msg.MsgWhats)
	}
	if !msg.OnMainLooper() {
		t.Error("handler action should be on the main looper")
	}
	onCreate := findInstance(reg, frontend.OnCreate, 1)
	if len(msg.Spawns) == 0 || msg.Spawns[0].From != onCreate.ID {
		t.Errorf("message spawns = %+v, want from onCreate", msg.Spawns)
	}
	// The message parameter must be bound: handleMessage's m points to
	// the obtained Message object.
	hm := app.Program.Class("MyHandler").Methods[frontend.HandleMessage]
	if got := res.PointsToAll(hm, "m"); got.Len() == 0 {
		t.Error("handleMessage's message parameter has empty points-to")
	}
}

// handlerThreadApp binds one handler to a HandlerThread's looper and one
// to the main looper — the §4.4 handler→looper binding scenario.
func handlerThreadApp() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)

	wh := ir.NewClass("WorkHandler", frontend.HandlerClass)
	hb := ir.NewMethodBuilder(frontend.HandleMessage, "m")
	hb.Ret("")
	wh.AddMethod(hb.Build())
	p.AddClass(wh)

	uh := ir.NewClass("UIHandler", frontend.HandlerClass)
	ub := ir.NewMethodBuilder(frontend.HandleMessage, "m")
	ub.Ret("")
	uh.AddMethod(ub.Build())
	p.AddClass(uh)

	act := ir.NewClass("HTActivity", frontend.ActivityClass)
	b := ir.NewMethodBuilder(frontend.OnCreate)
	b.NewObj("ht", frontend.HandlerThreadClass)
	b.CallSpecial("", "ht", frontend.HandlerThreadClass, "<initHT>")
	b.Call("", "ht", frontend.HandlerThreadClass, frontend.Start)
	b.Call("bgLooper", "ht", frontend.HandlerThreadClass, frontend.GetLooper)
	b.NewObj("wh", "WorkHandler")
	b.CallSpecial("", "wh", frontend.HandlerClass, "<init>", "bgLooper")
	b.CallStatic("mainLooper", frontend.LooperClass, frontend.GetMainLooper)
	b.NewObj("uh", "UIHandler")
	b.CallSpecial("", "uh", frontend.HandlerClass, "<init>", "mainLooper")
	b.Int("c1", 1)
	b.Call("", "wh", "WorkHandler", frontend.SendEmptyMessage, "c1")
	b.Int("c2", 2)
	b.Call("", "uh", "UIHandler", frontend.SendEmptyMessage, "c2")
	b.Ret("")
	act.AddMethod(b.Build())
	p.AddClass(act)
	p.Finalize()

	return &apk.App{
		Name: "htapp", Program: p,
		Manifest: apk.Manifest{Activities: []apk.Component{{Class: "HTActivity"}}},
		Layouts:  map[string]*apk.Layout{},
	}
}

func TestHandlerThreadLooperBinding(t *testing.T) {
	app := handlerThreadApp()
	reg, _ := discover(t, app, pointer.ActionSensitivePolicy{K: 2})
	var work, ui *Action
	for _, a := range reg.Actions() {
		if a.Kind != KindMessage {
			continue
		}
		switch a.Class {
		case "WorkHandler":
			work = a
		case "UIHandler":
			ui = a
		}
	}
	if work == nil || ui == nil {
		t.Fatalf("message actions missing: work=%v ui=%v", work, ui)
	}
	if work.OnMainLooper() {
		t.Error("WorkHandler's action must be on the HandlerThread looper, not main")
	}
	if work.Looper <= LooperMain {
		t.Errorf("background looper id = %d, want > LooperMain", work.Looper)
	}
	if !ui.OnMainLooper() {
		t.Errorf("UIHandler's action must be on the main looper, got %d", ui.Looper)
	}
	if work.Looper == ui.Looper {
		t.Error("distinct loopers must not collide")
	}
}

// TestAnalyzeAllocIgnoresUnreachedCode pads NotePad with 100,000
// statements of library code no harness reaches. The solver's tables
// are sized by what the harnesses reach, so the padding may not raise
// Analyze's allocation by more than a fixed margin; tables sized by the
// program text allocated about 26 MB more here. The margin covers the
// run-to-run spread of Go's map growth, which depends on the hash seed
// (about 160 KB either way on this app).
func TestAnalyzeAllocIgnoresUnreachedCode(t *testing.T) {
	const margin = 512 << 10
	measure := func(padStmts int) uint64 {
		row, _ := corpus.RowByName("NotePad")
		app, _ := corpus.NamedApp(row)
		for c := 0; padStmts > 0; c++ {
			cls := ir.NewClass(fmt.Sprintf("lib.Unreached%d", c), frontend.Object)
			cls.Library = true
			for m := 0; m < 10; m++ {
				b := ir.NewStaticMethodBuilder(fmt.Sprintf("f%d", m), "x")
				for i := 0; i < 100; i++ {
					b.BinOp("x", ir.OpAdd, "x", "x")
				}
				b.Ret("x")
				cls.AddMethod(b.Build())
				padStmts -= 101
			}
			app.Program.AddClass(cls)
		}
		hs := harness.Generate(app)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	base, padded := measure(0), measure(100_000)
	if padded > base+margin {
		t.Errorf("Analyze allocated %d KB with 100k unreached statements, %d KB without; want at most %d KB more",
			padded>>10, base>>10, margin>>10)
	}
}
