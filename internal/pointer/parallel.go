package pointer

// The SCC-partitioned parallel sweep for the delta solver (Config.Jobs
// > 1). The serial delta pass has four phases — instance sweep, copy
// edges, seeds, events — and only the sweep dominates; the other three
// stay serial. Each pass the planner decides whether the sweep is
// *pure*: no dirty statement can install a new instance, register a
// copy edge, or resolve dispatch (all of which mutate global discovery
// state whose order the parity contract pins). A pure sweep touches
// only points-to sets and dependency/dirty bookkeeping, and every key
// it can touch belongs to exactly one token component (see scc.go), so
// the components are solved concurrently by workers that buffer their
// global-state writes in per-worker overlays; a deterministic merge
// then applies the overlays in worker index order. Impure passes — and
// passes with fewer than two active components — fall back to the
// byte-identical serial sweep.
//
// Parity argument (details in DESIGN.md "Multi-core kernels"):
//   - Dirty one-shot statements are always virgin (they register no
//     dependencies, so only instance registration dirties them), and
//     instances are only registered by the serial phases; therefore a
//     pure pass's set of interned objects is exactly the dirty one-shot
//     News/findViewByIds/looper-gets, which the planner pre-interns in
//     ascending (slot, statement) order — the serial sweep's order —
//     before workers start. Workers then only hit the interner's
//     read-lock fast path.
//   - A worker visits its component's slots in ascending slot order.
//     Any mid-sweep dirtying flows through a written key's consumers,
//     which share the key's token and hence its component, so slot i's
//     visible state when visited equals the serial sweep's: effects of
//     all lower slots in its own component, and nothing else.
//   - Dispatch statements whose receiver could grow mid-sweep force the
//     serial path (planner check), so the sweep never resolves targets
//     — discovery order never depends on the partitioning.

import (
	"sync"
	"time"

	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// Statement kinds, classified once per method. The planner uses them to
// detect structural statements; workers use them to dispatch transfers
// without re-running type switches and frontend.Recognize.
const (
	kOther uint8 = iota
	kNew
	kMove
	kLoad
	kStore
	kSLoad
	kSStore
	kReturn      // Return with a source
	kInvPure     // recognized framework stub other than findViewById
	kInvFVB      // findViewById
	kInvLooper   // Looper.getMainLooper / myLooper
	kInvStatic   // static invoke: structural (binds a call)
	kInvDispatch // virtual/special invoke: structural (resolves targets)
)

// parState is the persistent cross-pass state of the parallel planner.
type parState struct {
	a    *analyzer
	toks *tokenTable

	// kindsOf caches per-method statement kinds, aligned with
	// deltaState.methodStmts order.
	kindsOf map[*ir.Method][]uint8

	// nSynced counts instance slots absorbed into the token structures;
	// sync() catches up to len(a.order) at each plan.
	nSynced int

	// slotRep holds one token of each slot (-1 when the slot's
	// statements mention no points-to key); find(slotRep[s]) is the
	// slot's component.
	slotRep []int32
	// slotWrites lists each slot's written tokens (the slot → token
	// edges of the SCC digraph).
	slotWrites [][]int32
	// slotDispatch lists each slot's dispatch receiver tokens, for the
	// mid-sweep receiver-growth check.
	slotDispatch [][]int32

	workers []*parWorker

	// Per-pass scratch.
	dirtySlots  []int
	tokenless   []int
	activeSlots []int
	activeRoots map[int32]bool
	compIdx     map[int32]int
	comps       [][]int

	// Metric accumulators, reported once after the fixpoint.
	partitions int64
	sccs       int64
}

func newParState(a *analyzer) *parState {
	return &parState{
		a:           a,
		toks:        newTokenTable(),
		kindsOf:     make(map[*ir.Method][]uint8, a.cfg.Size.Methods),
		activeRoots: make(map[int32]bool),
		compIdx:     make(map[int32]int),
	}
}

// reportObs publishes the partitioning counters (only ever non-zero
// when a parallel sweep actually ran, so Jobs≤1 runs emit nothing).
func (ps *parState) reportObs() {
	tr := ps.a.cfg.Obs
	if tr == nil || ps.partitions == 0 {
		return
	}
	tr.Count("pointer.par_partitions", ps.partitions)
	tr.Count("pointer.scc_components", ps.sccs)
}

// methodKinds classifies a method's statements (cached).
func (ps *parState) methodKinds(m *ir.Method) []uint8 {
	if ks, ok := ps.kindsOf[m]; ok {
		return ks
	}
	stmts := ps.a.d.methodStmts(m)
	ks := make([]uint8, len(stmts))
	for i, s := range stmts {
		switch stm := s.(type) {
		case *ir.New:
			ks[i] = kNew
		case *ir.Move:
			ks[i] = kMove
		case *ir.Load:
			ks[i] = kLoad
		case *ir.Store:
			ks[i] = kStore
		case *ir.StaticLoad:
			ks[i] = kSLoad
		case *ir.StaticStore:
			ks[i] = kSStore
		case *ir.Return:
			if stm.Src != "" {
				ks[i] = kReturn
			}
		case *ir.Invoke:
			if api, ok := frontend.Recognize(ps.a.cfg.Prog, stm); ok {
				if api.Kind == frontend.APIFindViewByID {
					ks[i] = kInvFVB
				} else {
					ks[i] = kInvPure
				}
			} else if stm.Class == frontend.LooperClass &&
				(stm.Method == frontend.GetMainLooper || stm.Method == frontend.MyLooper) {
				ks[i] = kInvLooper
			} else if stm.Kind == ir.InvokeStatic {
				ks[i] = kInvStatic
			} else {
				ks[i] = kInvDispatch
			}
		}
	}
	ps.kindsOf[m] = ks
	return ks
}

// sync absorbs instance slots registered since the last plan: interns
// their tokens, unions each slot's tokens into one component, and
// indexes writers/readers for the structural check and the SCC metric.
func (ps *parState) sync() {
	a := ps.a
	for s := ps.nSynced; s < len(a.order); s++ {
		mk := a.order[s]
		stmts := a.d.methodStmts(mk.M)
		kinds := ps.methodKinds(mk.M)
		vk := func(v string) int32 {
			return ps.toks.varToken(VarKey{M: mk.M, Ctx: mk.Ctx, Var: v})
		}
		var all, writes, dispatch []int32
		read := func(t int32) {
			all = append(all, t)
			ps.toks.readers[t] = append(ps.toks.readers[t], int32(s))
		}
		write := func(t int32) {
			all = append(all, t)
			writes = append(writes, t)
			ps.toks.writers[t]++
		}
		for i, stmt := range stmts {
			switch kinds[i] {
			case kNew:
				write(vk(stmt.(*ir.New).Dst))
			case kMove:
				stm := stmt.(*ir.Move)
				read(vk(stm.Src))
				write(vk(stm.Dst))
			case kLoad:
				stm := stmt.(*ir.Load)
				read(vk(stm.Obj))
				read(ps.toks.fieldToken(stm.Field))
				write(vk(stm.Dst))
			case kStore:
				stm := stmt.(*ir.Store)
				read(vk(stm.Obj))
				read(vk(stm.Src))
				write(ps.toks.fieldToken(stm.Field))
			case kSLoad:
				stm := stmt.(*ir.StaticLoad)
				read(ps.toks.staticToken(stm.Class + "." + stm.Field))
				write(vk(stm.Dst))
			case kSStore:
				stm := stmt.(*ir.StaticStore)
				read(vk(stm.Src))
				write(ps.toks.staticToken(stm.Class + "." + stm.Field))
			case kReturn:
				read(vk(stmt.(*ir.Return).Src))
				write(vk(retVar))
			case kInvFVB, kInvLooper:
				if dst := stmt.(*ir.Invoke).Dst; dst != "" {
					write(vk(dst))
				}
			case kInvDispatch:
				t := vk(stmt.(*ir.Invoke).Recv)
				read(t)
				dispatch = append(dispatch, t)
			}
		}
		rep := int32(-1)
		if len(all) > 0 {
			rep = all[0]
			for _, t := range all[1:] {
				ps.toks.union(rep, t)
			}
		}
		ps.slotRep = append(ps.slotRep, rep)
		ps.slotWrites = append(ps.slotWrites, writes)
		ps.slotDispatch = append(ps.slotDispatch, dispatch)
	}
	ps.nSynced = len(a.order)
}

// hasDirtyStructural reports whether any dirty statement of a slot is a
// static invoke or a dispatch (either would bind calls this pass).
func (ps *parState) hasDirtyStructural(slot int) bool {
	a := ps.a
	d := a.d
	mk := a.order[slot]
	kinds := ps.methodKinds(mk.M)
	base := d.instBase[slot]
	for si := range kinds {
		if !d.dirtyStmt.Has(base + si) {
			continue
		}
		if k := kinds[si]; k == kInvStatic || k == kInvDispatch {
			return true
		}
	}
	return false
}

// preIntern interns, in statement order, every object a slot's dirty
// one-shot statements will create — reproducing the interner id order
// of the serial sweep before any worker runs.
func (ps *parState) preIntern(slot int) {
	a := ps.a
	d := a.d
	mk := a.order[slot]
	kinds := ps.methodKinds(mk.M)
	stmts := d.methodStmts(mk.M)
	base := d.instBase[slot]
	for si, kind := range kinds {
		switch kind {
		case kNew, kInvFVB, kInvLooper:
		default:
			continue
		}
		sid := base + si
		if !d.dirtyStmt.Has(sid) || d.stmts[sid].init {
			continue
		}
		switch kind {
		case kNew:
			stm := stmts[si].(*ir.New)
			a.in.Intern(Obj{Site: stm.Site, Ctx: a.cfg.Policy.HeapCtx(mk.Ctx), Class: stm.Class})
		case kInvFVB:
			inv := stmts[si].(*ir.Invoke)
			if inv.Dst != "" {
				for _, o := range a.viewObjs(mk.M, inv.Args[0]) {
					a.in.Intern(o)
				}
			}
		case kInvLooper:
			if stmts[si].(*ir.Invoke).Dst != "" {
				a.in.Intern(MainLooperObj(frontend.LooperClass))
			}
		}
	}
}

// tryPass plans one pass. If the sweep is pure and spans at least two
// active components it runs the partitioned sweep and returns true;
// otherwise it returns false with no solver state touched, and the
// caller runs the serial sweep.
func (ps *parState) tryPass() bool {
	a := ps.a
	d := a.d
	ps.sync()

	ps.dirtySlots = ps.dirtySlots[:0]
	d.dirtyInst.ForEach(func(i int) {
		ps.dirtySlots = append(ps.dirtySlots, i)
	})
	if len(ps.dirtySlots) == 0 {
		return false
	}
	// Structural check (a): a dirty static-invoke or dispatch statement
	// would bind calls during the sweep.
	for _, slot := range ps.dirtySlots {
		if ps.hasDirtyStructural(slot) {
			return false
		}
	}
	// Active components, keyed by union-find root.
	clear(ps.activeRoots)
	for _, slot := range ps.dirtySlots {
		if rep := ps.slotRep[slot]; rep >= 0 {
			ps.activeRoots[ps.toks.find(rep)] = true
		}
	}
	// Structural check (b): a clean dispatch statement whose receiver
	// token can grow inside an active component would be dirtied — and,
	// in the serial sweep, run — mid-pass.
	for _, dts := range ps.slotDispatch {
		for _, t := range dts {
			if ps.toks.writers[t] > 0 && ps.activeRoots[ps.toks.find(t)] {
				return false
			}
		}
	}
	// Group the active components in first-slot order; collect dirty
	// tokenless slots (pure no-ops, processed inline).
	ps.tokenless = ps.tokenless[:0]
	for _, slot := range ps.dirtySlots {
		if ps.slotRep[slot] == -1 {
			ps.tokenless = append(ps.tokenless, slot)
		}
	}
	clear(ps.compIdx)
	ps.comps = ps.comps[:0]
	ps.activeSlots = ps.activeSlots[:0]
	for slot := 0; slot < len(a.order); slot++ {
		rep := ps.slotRep[slot]
		if rep < 0 {
			continue
		}
		root := ps.toks.find(rep)
		if !ps.activeRoots[root] {
			continue
		}
		ci, ok := ps.compIdx[root]
		if !ok {
			ci = len(ps.comps)
			ps.compIdx[root] = ci
			ps.comps = append(ps.comps, nil)
		}
		ps.comps[ci] = append(ps.comps[ci], slot)
		ps.activeSlots = append(ps.activeSlots, slot)
	}
	if len(ps.comps) < 2 {
		return false
	}

	// Committed: this pass runs partitioned.
	ps.partitions += int64(len(ps.comps))
	ps.sccs += int64(ps.sccCount(ps.activeSlots))
	for _, slot := range ps.dirtySlots {
		ps.preIntern(slot)
	}
	processed := int64(0)
	for _, slot := range ps.tokenless {
		d.dirtyInst.Clear(slot)
		a.stats.dirtyInstances++
		processed++
		a.processInstanceDelta(slot)
	}

	jobs := a.cfg.Jobs
	if jobs > len(ps.comps) {
		jobs = len(ps.comps)
	}
	for len(ps.workers) < jobs {
		ps.workers = append(ps.workers, newParWorker(ps))
	}
	var wg sync.WaitGroup
	for wi := 0; wi < jobs; wi++ {
		w := ps.workers[wi]
		w.reset()
		wg.Add(1)
		go func(w *parWorker, wi int) {
			defer wg.Done()
			for ci := wi; ci < len(ps.comps); ci += jobs {
				if ctxDone(a.cfg.Ctx) {
					w.interrupted = true
					return
				}
				w.runComponent(ps.comps[ci])
			}
		}(w, wi)
	}
	wg.Wait()

	// Deterministic merge, in worker index order.
	start := time.Now()
	for wi := 0; wi < jobs; wi++ {
		w := ps.workers[wi]
		for k, s := range w.ptsOv {
			a.res.pts[k] = s
		}
		for k, s := range w.fptsOv {
			a.res.fpts[k] = s
		}
		for k, s := range w.sptsOv {
			a.res.spts[k] = s
		}
		for k, c := range w.varDepOv {
			gc := d.varCons(k)
			gc.stmts = append(gc.stmts, c.stmts...)
		}
		for k, c := range w.fieldDepOv {
			gc := d.fieldCons(k)
			gc.stmts = append(gc.stmts, c.stmts...)
		}
		for k, c := range w.staticDepOv {
			gc := d.staticCons(k)
			gc.stmts = append(gc.stmts, c.stmts...)
		}
		d.nDeps += w.newDeps
		for sid, v := range w.stmtOv {
			if v {
				d.dirtyStmt.Add(sid)
			} else {
				d.dirtyStmt.Clear(sid)
			}
		}
		for i, v := range w.instOv {
			if v {
				d.dirtyInst.Add(i)
			} else {
				d.dirtyInst.Clear(i)
			}
		}
		for _, eid := range w.evMarks {
			d.dirtyEv.Add(eid)
		}
		for _, si := range w.seedMarks {
			if !d.seedDirty[si] {
				d.seedDirty[si] = true
				d.dirtySeeds++
			}
		}
		for _, e := range w.copyMarks {
			if !e.dirty {
				e.dirty = true
				d.dirtyCopies++
			}
		}
		if w.changed {
			d.changed = true
		}
		if w.interrupted {
			a.res.Interrupted = true
		}
		a.stats.dirtyInstances += w.processed
		a.stats.deltaProps += w.props
		processed += w.processed
	}
	if tr := a.cfg.Obs; tr != nil {
		tr.Observe("pointer.par_merge_ms", float64(time.Since(start))/1e6)
	}
	// The serial sweep visits every slot; slots neither processed here
	// nor dirtied mid-sweep would have been skips.
	a.stats.iterations += int64(len(a.order))
	a.stats.transferSkips += int64(len(a.order)) - processed
	return true
}

// parWorker executes components of a pure pass. It mutates existing
// points-to sets and per-statement state in place (exclusive to its
// component) and buffers every global-structure write in overlays the
// merge phase applies.
type parWorker struct {
	a  *analyzer
	ps *parState

	// Overlay maps for keys materialized this pass.
	ptsOv  map[VarKey]ObjSet
	fptsOv map[FieldKey]ObjSet
	sptsOv map[string]ObjSet

	// Overlay dependency registrations (appended to the global lists at
	// merge; component exclusivity keeps per-key order serial-identical).
	varDepOv    map[VarKey]*consumers
	fieldDepOv  map[FieldKey]*consumers
	staticDepOv map[string]*consumers

	// Overlay dirty bits: entries shadow the (unmutated) global bitsets.
	instOv map[int]bool
	stmtOv map[int]bool

	evMarks   []int
	seedMarks []int
	copyMarks []*copyEdge

	scratch []int
	polls   int

	newDeps     int
	processed   int64
	props       int64
	changed     bool
	interrupted bool
}

func newParWorker(ps *parState) *parWorker {
	return &parWorker{
		a:           ps.a,
		ps:          ps,
		ptsOv:       make(map[VarKey]ObjSet),
		fptsOv:      make(map[FieldKey]ObjSet),
		sptsOv:      make(map[string]ObjSet),
		varDepOv:    make(map[VarKey]*consumers),
		fieldDepOv:  make(map[FieldKey]*consumers),
		staticDepOv: make(map[string]*consumers),
		instOv:      make(map[int]bool),
		stmtOv:      make(map[int]bool),
	}
}

func (w *parWorker) reset() {
	clear(w.ptsOv)
	clear(w.fptsOv)
	clear(w.sptsOv)
	clear(w.varDepOv)
	clear(w.fieldDepOv)
	clear(w.staticDepOv)
	clear(w.instOv)
	clear(w.stmtOv)
	w.evMarks = w.evMarks[:0]
	w.seedMarks = w.seedMarks[:0]
	w.copyMarks = w.copyMarks[:0]
	w.newDeps, w.polls = 0, 0
	w.processed, w.props = 0, 0
	w.changed, w.interrupted = false, false
}

func (w *parWorker) instDirty(i int) bool {
	if v, ok := w.instOv[i]; ok {
		return v
	}
	return w.a.d.dirtyInst.Has(i)
}

func (w *parWorker) stmtDirty(sid int) bool {
	if v, ok := w.stmtOv[sid]; ok {
		return v
	}
	return w.a.d.dirtyStmt.Has(sid)
}

// runComponent sweeps one component's slots in ascending order — the
// serial sweep's visit order restricted to the component.
func (w *parWorker) runComponent(slots []int) {
	for _, slot := range slots {
		w.polls++
		if w.polls%ctxStride == 0 && ctxDone(w.a.cfg.Ctx) {
			w.interrupted = true
			return
		}
		if !w.instDirty(slot) {
			continue
		}
		w.instOv[slot] = false
		w.processed++
		w.processInstance(slot)
	}
}

func (w *parWorker) processInstance(slot int) {
	a := w.a
	d := a.d
	mk := a.order[slot]
	base := d.instBase[slot]
	kinds := w.ps.kindsOf[mk.M]
	for si, s := range d.methodStmts(mk.M) {
		sid := base + si
		if !w.stmtDirty(sid) {
			continue
		}
		w.stmtOv[sid] = false
		w.props++
		w.transfer(mk, s, sid, kinds[si])
	}
}

// transfer mirrors transferDelta for the pure statement kinds. The
// planner guarantees no structural kind is ever dirty here.
func (w *parWorker) transfer(mk MKey, s ir.Stmt, sid int, kind uint8) {
	a := w.a
	d := a.d
	key := func(v string) VarKey { return VarKey{M: mk.M, Ctx: mk.Ctx, Var: v} }
	switch kind {
	case kNew:
		st := &d.stmts[sid]
		if st.init {
			return
		}
		st.init = true
		stm := s.(*ir.New)
		k := key(stm.Dst)
		o := Obj{Site: stm.Site, Ctx: a.cfg.Policy.HeapCtx(mk.Ctx), Class: stm.Class}
		if w.pts(k).Add(o) {
			w.touchVar(k)
		}
	case kMove:
		st := &d.stmts[sid]
		stm := s.(*ir.Move)
		sk := key(stm.Src)
		if !st.init {
			st.init = true
			w.dependVar(sk, sid)
		}
		dk := key(stm.Dst)
		if w.pts(dk).AddAll(w.pts(sk)) {
			w.touchVar(dk)
		}
	case kLoad:
		w.load(mk, s.(*ir.Load), sid)
	case kStore:
		w.store(mk, s.(*ir.Store), sid)
	case kSLoad:
		st := &d.stmts[sid]
		stm := s.(*ir.StaticLoad)
		if !st.init {
			st.init = true
			w.dependStatic(stm.Class+"."+stm.Field, sid)
		}
		dk := key(stm.Dst)
		if w.pts(dk).AddAll(w.spts(stm.Class, stm.Field)) {
			w.touchVar(dk)
		}
	case kSStore:
		st := &d.stmts[sid]
		stm := s.(*ir.StaticStore)
		sk := key(stm.Src)
		if !st.init {
			st.init = true
			w.dependVar(sk, sid)
		}
		if w.spts(stm.Class, stm.Field).AddAll(w.pts(sk)) {
			w.touchStatic(stm.Class + "." + stm.Field)
		}
	case kReturn:
		st := &d.stmts[sid]
		stm := s.(*ir.Return)
		sk := key(stm.Src)
		if !st.init {
			st.init = true
			w.dependVar(sk, sid)
		}
		dk := key(retVar)
		if w.pts(dk).AddAll(w.pts(sk)) {
			w.touchVar(dk)
		}
	case kInvPure, kInvFVB, kInvLooper:
		st := &d.stmts[sid]
		if st.init {
			return
		}
		st.init = true
		inv := s.(*ir.Invoke)
		if inv.Dst == "" {
			return
		}
		dk := key(inv.Dst)
		switch kind {
		case kInvFVB:
			for _, o := range a.viewObjs(mk.M, inv.Args[0]) {
				if w.pts(dk).Add(o) {
					w.touchVar(dk)
				}
			}
		case kInvLooper:
			if w.pts(dk).Add(MainLooperObj(frontend.LooperClass)) {
				w.touchVar(dk)
			}
		}
	case kInvStatic, kInvDispatch:
		panic("pointer: structural statement reached a pure parallel sweep")
	}
}

// load mirrors loadDelta with overlay lookups and buffered marks.
func (w *parWorker) load(mk MKey, stm *ir.Load, sid int) {
	a := w.a
	st := &a.d.stmts[sid]
	bk := VarKey{M: mk.M, Ctx: mk.Ctx, Var: stm.Obj}
	dk := VarKey{M: mk.M, Ctx: mk.Ctx, Var: stm.Dst}
	if !st.init {
		st.init = true
		w.dependVar(bk, sid)
	}
	w.scratch = w.pts(bk).takeDelta(&st.prev, w.scratch[:0])
	if len(st.fields) == 0 && len(w.scratch) == 0 {
		return
	}
	dst := w.pts(dk)
	grew := false
	for i, fk := range st.fields {
		fs := w.fpts(fk)
		if v := fs.version(); v != st.fvers[i] {
			st.fvers[i] = v
			if dst.AddAll(fs) {
				grew = true
			}
		}
	}
	if len(w.scratch) > 0 {
		objs := a.in.snapshot()
		for _, id := range w.scratch {
			fk := FieldKey{Obj: objs[id], Field: stm.Field}
			fs := w.fpts(fk)
			if dst.AddAll(fs) {
				grew = true
			}
			st.fields = append(st.fields, fk)
			st.fvers = append(st.fvers, fs.version())
			w.dependField(fk, sid)
		}
	}
	if grew {
		w.touchVar(dk)
	}
}

// store mirrors storeDelta with overlay lookups and buffered marks.
func (w *parWorker) store(mk MKey, stm *ir.Store, sid int) {
	a := w.a
	st := &a.d.stmts[sid]
	bk := VarKey{M: mk.M, Ctx: mk.Ctx, Var: stm.Obj}
	sk := VarKey{M: mk.M, Ctx: mk.Ctx, Var: stm.Src}
	first := !st.init
	if first {
		st.init = true
		w.dependVar(bk, sid)
		w.dependVar(sk, sid)
	}
	src := w.pts(sk)
	base := w.pts(bk)
	srcChanged := first || src.version() != st.srcVer
	st.srcVer = src.version()
	if srcChanged {
		w.scratch = base.bits().AppendBits(w.scratch[:0])
		st.prev.CopyFrom(base.bits())
	} else {
		w.scratch = base.takeDelta(&st.prev, w.scratch[:0])
	}
	if len(w.scratch) == 0 {
		return
	}
	objs := a.in.snapshot()
	for _, id := range w.scratch {
		fk := FieldKey{Obj: objs[id], Field: stm.Field}
		if w.fpts(fk).AddAll(src) {
			w.touchField(fk)
		}
	}
}

// pts / fpts / spts look a key up in the global maps, then the overlay,
// materializing missing sets in the overlay (so the global key set
// after merge is identical to the serial sweep's).
func (w *parWorker) pts(k VarKey) ObjSet {
	if s, ok := w.a.res.pts[k]; ok {
		return s
	}
	if s, ok := w.ptsOv[k]; ok {
		return s
	}
	s := w.a.in.NewSet()
	w.ptsOv[k] = s
	return s
}

func (w *parWorker) fpts(k FieldKey) ObjSet {
	if s, ok := w.a.res.fpts[k]; ok {
		return s
	}
	if s, ok := w.fptsOv[k]; ok {
		return s
	}
	s := w.a.in.NewSet()
	w.fptsOv[k] = s
	return s
}

func (w *parWorker) spts(cls, field string) ObjSet {
	key := cls + "." + field
	if s, ok := w.a.res.spts[key]; ok {
		return s
	}
	if s, ok := w.sptsOv[key]; ok {
		return s
	}
	s := w.a.in.NewSet()
	w.sptsOv[key] = s
	return s
}

func (w *parWorker) dependVar(k VarKey, sid int) {
	c := w.varDepOv[k]
	if c == nil {
		c = &consumers{}
		w.varDepOv[k] = c
	}
	c.stmts = append(c.stmts, sid)
	w.newDeps++
}

func (w *parWorker) dependField(k FieldKey, sid int) {
	c := w.fieldDepOv[k]
	if c == nil {
		c = &consumers{}
		w.fieldDepOv[k] = c
	}
	c.stmts = append(c.stmts, sid)
	w.newDeps++
}

func (w *parWorker) dependStatic(key string, sid int) {
	c := w.staticDepOv[key]
	if c == nil {
		c = &consumers{}
		w.staticDepOv[key] = c
	}
	c.stmts = append(c.stmts, sid)
	w.newDeps++
}

// markCons dirties a key's consuming statements (in the overlay) and
// buffers its event marks for the merge.
func (w *parWorker) markCons(c *consumers) {
	d := w.a.d
	for _, sid := range c.stmts {
		w.stmtOv[sid] = true
		w.instOv[d.stmtInst[sid]] = true
	}
	for _, eid := range c.events {
		w.evMarks = append(w.evMarks, eid)
	}
}

func (w *parWorker) touchVar(k VarKey) {
	w.changed = true
	d := w.a.d
	if c := d.varDeps[k]; c != nil {
		w.markCons(c)
	}
	if c := w.varDepOv[k]; c != nil {
		w.markCons(c)
	}
	for _, e := range d.copyIndex[k] {
		if !e.dirty {
			w.copyMarks = append(w.copyMarks, e)
		}
	}
	if idxs := d.seedSrc[seedVar{M: k.M, V: k.Var}]; len(idxs) > 0 {
		w.seedMarks = append(w.seedMarks, idxs...)
	}
}

func (w *parWorker) touchField(k FieldKey) {
	w.changed = true
	d := w.a.d
	if c := d.fieldDeps[k]; c != nil {
		w.markCons(c)
	}
	if c := w.fieldDepOv[k]; c != nil {
		w.markCons(c)
	}
}

func (w *parWorker) touchStatic(key string) {
	w.changed = true
	d := w.a.d
	if c := d.staticDeps[key]; c != nil {
		w.markCons(c)
	}
	if c := w.staticDepOv[key]; c != nil {
		w.markCons(c)
	}
}
