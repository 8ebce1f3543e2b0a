package callgraph

import (
	"testing"

	"sierra/internal/corpus"
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// hierarchyProgram: Base.get overridden by Sub1/Sub2; Caller.top calls
// virtually via Base, statically via Util, and specially via Sub1.
func hierarchyProgram() *ir.Program {
	p := ir.NewProgram()
	frontend.InstallFramework(p)

	base := ir.NewClass("Base", frontend.Object)
	g := ir.NewMethodBuilder("get")
	g.Ret("")
	base.AddMethod(g.Build())
	p.AddClass(base)

	for _, name := range []string{"Sub1", "Sub2"} {
		c := ir.NewClass(name, "Base")
		m := ir.NewMethodBuilder("get")
		m.Ret("")
		c.AddMethod(m.Build())
		p.AddClass(c)
	}

	util := ir.NewClass("Util", frontend.Object)
	h := ir.NewStaticMethodBuilder("helper")
	h.Ret("")
	util.AddMethod(h.Build())
	p.AddClass(util)

	caller := ir.NewClass("Caller", frontend.Object)
	top := ir.NewMethodBuilder("top")
	top.NewObj("o", "Sub1")
	top.Call("", "o", "Base", "get")        // virtual: CHA says all overrides
	top.CallStatic("", "Util", "helper")    // static: exactly one
	top.CallSpecial("", "o", "Sub1", "get") // special: exactly one
	top.Ret("")
	caller.AddMethod(top.Build())
	unused := ir.NewMethodBuilder("unreached")
	unused.CallStatic("", "Util", "helper")
	unused.Ret("")
	caller.AddMethod(unused.Build())
	p.AddClass(caller)
	p.Finalize()
	return p
}

func TestCHAResolution(t *testing.T) {
	p := hierarchyProgram()
	top := p.Class("Caller").Methods["top"]
	g := BuildCHA(p, []*ir.Method{top})

	var virtualTargets, staticTargets, specialTargets []*ir.Method
	for bi, blk := range top.Blocks {
		for si, s := range blk.Stmts {
			inv, ok := s.(*ir.Invoke)
			if !ok {
				continue
			}
			targets := g.Callees(ir.Pos{Method: top, Block: bi, Index: si})
			switch inv.Kind {
			case ir.InvokeVirtual:
				virtualTargets = targets
			case ir.InvokeStatic:
				staticTargets = targets
			case ir.InvokeSpecial:
				specialTargets = targets
			}
		}
	}
	// CHA over-approximates virtual dispatch: Base.get + both overrides.
	if len(virtualTargets) != 3 {
		t.Errorf("virtual targets = %d, want 3 (Base, Sub1, Sub2)", len(virtualTargets))
	}
	if len(staticTargets) != 1 || staticTargets[0].Class.Name != "Util" {
		t.Errorf("static targets = %v", staticTargets)
	}
	if len(specialTargets) != 1 || specialTargets[0].Class.Name != "Sub1" {
		t.Errorf("special targets = %v", specialTargets)
	}
}

func TestCHAReachability(t *testing.T) {
	p := hierarchyProgram()
	top := p.Class("Caller").Methods["top"]
	g := BuildCHA(p, []*ir.Method{top})

	if !g.Reachable(top) {
		t.Error("entry not reachable")
	}
	if !g.Reachable(p.Class("Sub2").Methods["get"]) {
		t.Error("CHA should reach every override")
	}
	if g.Reachable(p.Class("Caller").Methods["unreached"]) {
		t.Error("unreached method should not be reachable")
	}
	names := map[string]bool{}
	for _, m := range g.ReachableMethods() {
		names[m.QualifiedName()] = true
	}
	if !names["Util#helper"] || names["Caller#unreached"] {
		t.Errorf("reachable set wrong: %v", names)
	}
}

func TestCHAReachableFromSubset(t *testing.T) {
	p := hierarchyProgram()
	top := p.Class("Caller").Methods["top"]
	other := p.Class("Caller").Methods["unreached"]
	g := BuildCHA(p, []*ir.Method{top, other})

	fromOther := map[*ir.Method]bool{}
	g.ReachableFrom(claimIn(fromOther), other)
	if !fromOther[p.Class("Util").Methods["helper"]] {
		t.Error("helper should be reachable from unreached")
	}
	if fromOther[p.Class("Sub1").Methods["get"]] {
		t.Error("Sub1.get must not be reachable from unreached")
	}
	none := map[*ir.Method]bool{}
	if g.ReachableFrom(claimIn(none), nil); len(none) != 0 {
		t.Errorf("nil root should reach nothing, got %d", len(none))
	}
	// A second root set gets only what the first did not reach.
	fromTop := map[*ir.Method]bool{}
	g.ReachableFrom(func(m *ir.Method) bool {
		if fromOther[m] {
			return false
		}
		fromOther[m], fromTop[m] = true, true
		return true
	}, top)
	if fromTop[p.Class("Util").Methods["helper"]] {
		t.Error("helper was already reached from unreached")
	}
	if !fromTop[p.Class("Sub1").Methods["get"]] {
		t.Error("Sub1.get should be reachable from top")
	}
}

// claimIn returns a ReachableFrom claim that accepts each method not yet
// in seen and adds it.
func claimIn(seen map[*ir.Method]bool) func(*ir.Method) bool {
	return func(m *ir.Method) bool {
		if seen[m] {
			return false
		}
		seen[m] = true
		return true
	}
}

func TestCHADeterministicOrder(t *testing.T) {
	p := hierarchyProgram()
	top := p.Class("Caller").Methods["top"]
	g1 := BuildCHA(p, []*ir.Method{top})
	g2 := BuildCHA(p, []*ir.Method{top})
	m1, m2 := g1.ReachableMethods(), g2.ReachableMethods()
	if len(m1) != len(m2) {
		t.Fatal("nondeterministic reachable count")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
}

// TestCHAExtendMatchesBuild grows one graph in steps and checks it
// against a single BuildCHA on the union of the steps' entries: same
// reachable set, same callees at every call site, and each step returns
// exactly the methods it newly reached, sorted by name.
func TestCHAExtendMatchesBuild(t *testing.T) {
	row, _ := corpus.RowByName("Mileage")
	app, _ := corpus.NamedApp(row)
	p := app.Program
	var all []*ir.Method
	for _, act := range app.Manifest.Activities {
		for _, lc := range []string{frontend.OnCreate, frontend.OnResume, frontend.OnDestroy} {
			if m := p.ResolveMethod(act.Class, lc); m != nil {
				all = append(all, m)
			}
		}
	}
	if len(all) < 6 {
		t.Fatalf("only %d lifecycle entries", len(all))
	}
	want := BuildCHA(p, all)

	grown := New(p)
	reached := map[*ir.Method]bool{}
	for _, step := range [][]*ir.Method{all[:2], all[2 : len(all)/2], nil, all[len(all)/2:]} {
		added := grown.Extend(step...)
		for i, m := range added {
			if reached[m] {
				t.Fatalf("Extend returned %s twice", m.QualifiedName())
			}
			reached[m] = true
			if i > 0 && added[i-1].QualifiedName() >= m.QualifiedName() {
				t.Fatalf("Extend result not sorted at %d", i)
			}
		}
	}
	got := grown.ReachableMethods()
	if len(got) != len(want.ReachableMethods()) || len(got) != len(reached) {
		t.Fatalf("reachable: grown %d, built %d, returned %d", len(got), len(want.ReachableMethods()), len(reached))
	}
	for _, m := range got {
		if !want.Reachable(m) {
			t.Fatalf("%s reachable only in the grown graph", m.QualifiedName())
		}
		for _, blk := range m.Blocks {
			for _, s := range blk.Stmts {
				a, b := grown.Callees(s.Pos()), want.Callees(s.Pos())
				if len(a) != len(b) {
					t.Fatalf("%v: %d callees grown, %d built", s.Pos(), len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%v: callee %d differs", s.Pos(), i)
					}
				}
			}
		}
	}
}
