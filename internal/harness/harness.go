// Package harness generates per-activity analysis entrypoints (Fig 4 in
// the paper). Android apps have no main(); the harness mirrors the
// Activity lifecycle state machine and the GUI model, giving the static
// analysis an entrypoint and giving the SHBG the control-flow structure
// its dominance-based HB rules (Figs 5, 6) run on.
//
// Callback discovery is a fixpoint: starting from lifecycle callbacks,
// reachable code is scanned for listener registrations (and XML-declared
// callbacks are added); each discovered callback gets a synthetic
// invocation site, which can reveal more registrations, until no new
// callbacks appear.
package harness

import (
	"fmt"
	"sort"

	"sierra/internal/apk"
	"sierra/internal/callgraph"
	"sierra/internal/frontend"
	"sierra/internal/ir"
	"sierra/internal/obs"
)

// ClassPrefix marks synthetic harness classes in the program.
const ClassPrefix = "sierra.harness."

// Harness is the generated entrypoint for one activity.
type Harness struct {
	// Activity is the activity class this harness drives.
	Activity string
	// Method is the synthetic main method (attached to a ClassPrefix
	// class registered in the app's program).
	Method *ir.Method
	// ActivityVar is the harness local holding the activity instance.
	ActivityVar string
	// Lifecycle lists the lifecycle call sites in harness CFG order.
	Lifecycle []LifecycleSite
	// GUI lists the synthetic GUI callback invocation slots.
	GUI []*GUISlot

	prog *ir.Program
}

// LifecycleSite is one lifecycle callback invocation in the harness.
// Instance distinguishes the duplicated callbacks the lifecycle model
// needs (onStart "1" on the create path vs onStart "2" on the restart
// path, per Fig 5).
type LifecycleSite struct {
	Callback string
	Instance int
	Pos      ir.Pos
}

// GUISlot is a synthetic invocation of a discovered GUI callback.
type GUISlot struct {
	// Callback is the listener method (onClick, onScroll, …).
	Callback string
	// Declarer is the listener interface declaring the callback.
	Declarer string
	// Classes are the candidate listener implementations.
	Classes []string
	// RecvVar is the harness local standing for the listener object; the
	// pointer analysis seeds it from Bindings (and from the activity
	// itself when BindActivity is set).
	RecvVar string
	// Pos is the synthetic invocation site in the harness method.
	Pos ir.Pos
	// Bindings seed RecvVar's points-to set from registration-site
	// arguments.
	Bindings []Binding
	// BindActivity additionally seeds RecvVar with the activity object
	// ("this"-registered listeners and XML callbacks).
	BindActivity bool
	// Parent indexes the GUI slot whose callback registered this one
	// (-1 for top-level slots); the harness nests the invocation under
	// the parent's, which is what induces onClick2 ≺ onClick3 edges.
	Parent int
	// FromXML marks layout-declared callbacks.
	FromXML bool
}

// Binding names a registration-site argument whose points-to set flows
// into a GUI slot's receiver variable.
type Binding struct {
	SrcMethod *ir.Method
	SrcVar    string
}

// Generate builds one harness per manifest activity and registers the
// synthetic classes in the app's program (finalizing it again).
func Generate(app *apk.App) []*Harness {
	return GenerateTraced(app, nil)
}

// GenerateTraced is Generate with observability: it publishes the
// harness.* counters (emitted harnesses, lifecycle sites, GUI slots,
// synthetic statements) into the trace (nil Trace = no-op).
func GenerateTraced(app *apk.App, tr *obs.Trace) []*Harness {
	var out []*Harness
	for _, comp := range app.Manifest.Activities {
		out = append(out, generateOne(app, comp))
	}
	app.Program.Finalize()
	// Positions exist only after Finalize; fill the site/slot Pos fields.
	for _, h := range out {
		h.locateSites()
	}
	if tr != nil {
		lifecycle, gui, stmts := Stats(out)
		tr.Count("harness.emitted", int64(len(out)))
		tr.Count("harness.lifecycle_sites", int64(lifecycle))
		tr.Count("harness.gui_slots", int64(gui))
		tr.Count("harness.synthetic_stmts", int64(stmts))
	}
	return out
}

// Stats sums the generated harnesses' lifecycle sites, GUI slots, and
// synthetic statements (the harness methods' statement count).
func Stats(hs []*Harness) (lifecycleSites, guiSlots, syntheticStmts int) {
	for _, h := range hs {
		lifecycleSites += len(h.Lifecycle)
		guiSlots += len(h.GUI)
		for _, blk := range h.Method.Blocks {
			syntheticStmts += len(blk.Stmts)
		}
	}
	return lifecycleSites, guiSlots, syntheticStmts
}

// generateOne builds the harness for a single activity.
func generateOne(app *apk.App, comp apk.Component) *Harness {
	p := app.Program
	h := &Harness{Activity: comp.Class, ActivityVar: "act", prog: p}
	h.GUI = discoverSlots(app, comp)

	b := ir.NewMethodBuilder("main")
	// a = new Activity; onCreate; onStart "1"; onResume "1"
	b.NewObj(h.ActivityVar, comp.Class)
	call := func(cb string) {
		b.Call("", h.ActivityVar, comp.Class, cb)
	}
	call(frontend.OnCreate)
	call(frontend.OnStart)
	call(frontend.OnResume)
	loopHead := b.GotoNew()

	// loop: while (*) { switch (*) { gui slots } }
	guiEntry, after := b.IfStar()
	b.SetBlock(guiEntry)
	emitSlots(b, h, topLevel(h.GUI), loopHead)

	// after the loop: onPause; then either onResume "2" (back to loop) or
	// onStop; after onStop either onRestart+onStart "2" (back) or
	// onDestroy.
	b.SetBlock(after)
	call(frontend.OnPause)
	resumeB, stopB := b.IfStar()
	b.SetBlock(resumeB)
	call(frontend.OnResume)
	b.Goto(loopHead)
	b.SetBlock(stopB)
	call(frontend.OnStop)
	restartB, destroyB := b.IfStar()
	b.SetBlock(restartB)
	call(frontend.OnRestart)
	call(frontend.OnStart)
	b.Goto(loopHead)
	b.SetBlock(destroyB)
	call(frontend.OnDestroy)
	b.Ret("")

	cls := ir.NewClass(ClassPrefix+comp.Class, frontend.Object)
	cls.AddMethod(b.Build())
	p.AddClass(cls)
	h.Method = cls.Methods["main"]
	return h
}

// topLevel returns the indices of slots with no parent.
func topLevel(slots []*GUISlot) []int {
	var out []int
	for i, s := range slots {
		if s.Parent < 0 {
			out = append(out, i)
		}
	}
	return out
}

// children returns the indices of slots whose parent is idx.
func children(slots []*GUISlot, idx int) []int {
	var out []int
	for i, s := range slots {
		if s.Parent == idx {
			out = append(out, i)
		}
	}
	return out
}

// emitSlots emits a nondeterministic switch over the given slots. Each
// arm invokes the slot's callback, then nests its children under a
// further nondeterministic switch, then jumps back to loopHead.
func emitSlots(b *ir.MethodBuilder, h *Harness, idxs []int, loopHead *ir.Block) {
	for _, i := range idxs {
		slot := h.GUI[i]
		arm, next := b.IfStar()
		b.SetBlock(arm)
		emitInvoke(b, h, i)
		kids := children(h.GUI, i)
		if len(kids) > 0 {
			kidEntry, done := b.IfStar()
			b.SetBlock(kidEntry)
			emitSlots(b, h, kids, loopHead)
			b.SetBlock(done)
		}
		b.Goto(loopHead)
		b.SetBlock(next)
		_ = slot
	}
	b.Goto(loopHead)
}

// IsSynthetic reports whether cls is a generated harness class.
func IsSynthetic(cls string) bool {
	return len(cls) >= len(ClassPrefix) && cls[:len(ClassPrefix)] == ClassPrefix
}

// emitInvoke emits the synthetic callback invocation for slot i. The
// receiver variable is never assigned in the harness; the pointer
// analysis seeds it from the slot's bindings.
func emitInvoke(b *ir.MethodBuilder, h *Harness, i int) {
	slot := h.GUI[i]
	slot.RecvVar = fmt.Sprintf("gui$%d", i)
	// Parameter count from any candidate implementation (null-padded).
	nargs := 0
	args := []string{}
	for range slot.paramsOf(h) {
		v := fmt.Sprintf("gui$%d$arg%d", i, nargs)
		b.Null(v)
		args = append(args, v)
		nargs++
	}
	b.Call("", slot.RecvVar, slot.Declarer, slot.Callback, args...)
}

// paramsOf returns the parameter list of the first resolvable candidate
// implementation of the slot's callback.
func (s *GUISlot) paramsOf(h *Harness) []string {
	for _, cls := range s.Classes {
		if m := h.prog.ResolveMethod(cls, s.Callback); m != nil {
			return m.Params
		}
	}
	return nil
}

// locateSites records the Pos of every lifecycle call and GUI invocation
// now that the program is finalized.
func (h *Harness) locateSites() {
	counts := map[string]int{}
	for _, blk := range h.Method.Blocks {
		for _, s := range blk.Stmts {
			inv, ok := s.(*ir.Invoke)
			if !ok {
				continue
			}
			if inv.Recv == h.ActivityVar && frontend.IsLifecycleName(inv.Method) {
				counts[inv.Method]++
				h.Lifecycle = append(h.Lifecycle, LifecycleSite{
					Callback: inv.Method,
					Instance: counts[inv.Method],
					Pos:      inv.Pos(),
				})
				continue
			}
			for _, slot := range h.GUI {
				if inv.Recv == slot.RecvVar && inv.Method == slot.Callback {
					slot.Pos = inv.Pos()
				}
			}
		}
	}
}

// Site returns the lifecycle site for callback cb, instance n (1-based).
func (h *Harness) Site(cb string, n int) (LifecycleSite, bool) {
	for _, s := range h.Lifecycle {
		if s.Callback == cb && s.Instance == n {
			return s, true
		}
	}
	return LifecycleSite{}, false
}

// discoverSlots runs the registration-discovery fixpoint for one
// activity and returns the GUI slots.
func discoverSlots(app *apk.App, comp apk.Component) []*GUISlot {
	p := app.Program
	var slots []*GUISlot
	seen := map[string]bool{} // dedup key

	// XML-declared callbacks come first ("they are unique" — §3.2).
	if comp.Layout != "" {
		if l := app.Layouts[comp.Layout]; l != nil {
			for _, v := range l.AllViews() {
				kinds := make([]string, 0, len(v.XMLCallbacks))
				for kind := range v.XMLCallbacks {
					kinds = append(kinds, kind)
				}
				sort.Strings(kinds)
				for _, kind := range kinds {
					target := v.XMLCallbacks[kind]
					key := "xml:" + kind + ":" + target
					if seen[key] || p.ResolveMethod(comp.Class, target) == nil {
						continue
					}
					seen[key] = true
					slots = append(slots, &GUISlot{
						Callback:     target,
						Declarer:     comp.Class,
						Classes:      []string{comp.Class},
						BindActivity: true,
						Parent:       -1,
						FromXML:      true,
					})
				}
			}
		}
	}

	// Fixpoint over dynamically-registered listeners. One CHA grows by
	// each round's new entry points, and a round scans only the methods
	// it newly reached: a method reached earlier already has its
	// registration keys in seen, and its CHA edges cannot change because
	// the hierarchy is fixed while discovery runs.
	cha := callgraph.New(p)
	// parent maps each reached method to the slot a registration in it
	// nests under: -1 (top level) if a lifecycle entry reaches it, else
	// the first GUI slot that does. Each round walks its new entry
	// groups in slot order, and each method goes to the first group
	// that reaches it.
	parent := map[*ir.Method]int{}
	groups := []entryGroup{{slot: -1, roots: lifecycleEntries(p, comp.Class)}}
	for next := 0; ; {
		for ; next < len(slots); next++ {
			groups = append(groups, entryGroup{slot: next, roots: slotEntries(p, slots[next])})
		}
		var entries []*ir.Method
		for _, g := range groups {
			entries = append(entries, g.roots...)
		}
		fresh := cha.Extend(entries...)
		for _, g := range groups {
			cha.ReachableFrom(func(m *ir.Method) bool {
				if _, ok := parent[m]; ok {
					return false
				}
				parent[m] = g.slot
				return true
			}, g.roots...)
		}
		groups = groups[:0]
		added := false
		for _, m := range fresh {
			if m.Class != nil && m.Class.Framework {
				continue
			}
			for _, blk := range m.Blocks {
				for _, s := range blk.Stmts {
					inv, ok := s.(*ir.Invoke)
					if !ok {
						continue
					}
					api, ok := frontend.Recognize(p, inv)
					if !ok || api.Kind != frontend.APISetListener {
						continue
					}
					key := fmt.Sprintf("reg:%s:%s@%d.%d", api.Callback, m.QualifiedName(), blk.Index, indexOf(blk, s))
					if seen[key] {
						continue
					}
					seen[key] = true
					arg := inv.Args[api.Arg]
					classes, bindAct := listenerClasses(p, m, arg, api.Callback)
					slot := &GUISlot{
						Callback:     api.Callback,
						Declarer:     declarerOf(api.Callback),
						Classes:      classes,
						BindActivity: bindAct,
						Parent:       parent[m],
						Bindings:     []Binding{{SrcMethod: m, SrcVar: arg}},
					}
					slots = append(slots, slot)
					added = true
				}
			}
		}
		if !added {
			return slots
		}
	}
}

// indexOf finds a statement's index within its block (pre-Finalize the
// Pos fields aren't set yet).
func indexOf(blk *ir.Block, s ir.Stmt) int {
	for i, have := range blk.Stmts {
		if have == s {
			return i
		}
	}
	return -1
}

// entryGroup is a set of discovery CHA entry points: the activity's
// lifecycle callbacks (slot -1) or one GUI slot's callbacks.
type entryGroup struct {
	slot  int
	roots []*ir.Method
}

// lifecycleEntries returns the activity's lifecycle callbacks.
func lifecycleEntries(p *ir.Program, activity string) []*ir.Method {
	var out []*ir.Method
	for _, lc := range []string{
		frontend.OnCreate, frontend.OnStart, frontend.OnResume,
		frontend.OnPause, frontend.OnStop, frontend.OnRestart, frontend.OnDestroy,
	} {
		if m := p.ResolveMethod(activity, lc); m != nil {
			out = append(out, m)
		}
	}
	return out
}

// slotEntries returns the implementations of a slot's callback on its
// candidate classes.
func slotEntries(p *ir.Program, slot *GUISlot) []*ir.Method {
	var out []*ir.Method
	for _, cls := range slot.Classes {
		if m := p.ResolveMethod(cls, slot.Callback); m != nil {
			out = append(out, m)
		}
	}
	return out
}

// listenerClasses resolves the candidate classes of a listener argument:
// "this" means the registering class; a locally-allocated listener means
// that class; anything else (field loads, params) over-approximates to
// every app class implementing the callback — the type-based reflection
// fallback the paper describes.
func listenerClasses(p *ir.Program, m *ir.Method, arg, callback string) (classes []string, bindActivity bool) {
	if arg == "this" {
		return []string{m.Class.Name}, true
	}
	// Chase Move chains to a New within the method.
	cur := arg
	for hops := 0; hops < 8; hops++ {
		var def ir.Stmt
		for _, blk := range m.Blocks {
			for _, s := range blk.Stmts {
				switch st := s.(type) {
				case *ir.New:
					if st.Dst == cur {
						def = st
					}
				case *ir.Move:
					if st.Dst == cur {
						def = st
					}
				}
			}
		}
		switch st := def.(type) {
		case *ir.New:
			return []string{st.Class}, false
		case *ir.Move:
			if st.Src == "this" {
				return []string{m.Class.Name}, true
			}
			cur = st.Src
			continue
		}
		break
	}
	// Over-approximate: any non-framework class defining the callback.
	for _, c := range p.Classes() {
		if c.Framework {
			continue
		}
		if c.Methods[callback] != nil {
			classes = append(classes, c.Name)
		}
	}
	return classes, false
}

// declarerOf maps a callback name to its listener interface.
func declarerOf(callback string) string {
	switch callback {
	case frontend.OnClick:
		return frontend.OnClickListener
	case frontend.OnLongClick:
		return frontend.OnLongClickListener
	case frontend.OnScroll:
		return frontend.OnScrollListener
	case frontend.OnItemClick:
		return frontend.OnItemClickListener
	case frontend.OnTouch:
		return frontend.OnTouchListener
	default:
		return frontend.Object
	}
}
