// Package callgraph builds call graphs over the IR. It provides a cheap
// class-hierarchy-analysis (CHA) graph used by harness generation and by
// the action-insensitive baseline, and defines the call-graph types the
// pointer analysis populates on the fly (the precise, context-sensitive
// graph the paper gets from WALA).
package callgraph

import (
	"sort"

	"sierra/internal/ir"
)

// CHA is a context-insensitive call graph computed by class-hierarchy
// analysis: a virtual call resolves to every subtype override of the
// static receiver type.
type CHA struct {
	prog *ir.Program
	// callees maps a call site to its possible targets.
	callees map[ir.Pos][]*ir.Method
	// reachable is the set of methods reachable from the entry points.
	reachable map[*ir.Method]bool
}

// BuildCHA computes the CHA call graph reachable from entries.
func BuildCHA(p *ir.Program, entries []*ir.Method) *CHA {
	g := New(p)
	g.Extend(entries...)
	return g
}

// New returns an empty CHA graph over p, to be grown with Extend.
func New(p *ir.Program) *CHA {
	return &CHA{
		prog:      p,
		callees:   make(map[ir.Pos][]*ir.Method),
		reachable: make(map[*ir.Method]bool),
	}
}

// Extend adds entries to the graph's entry points and returns the
// methods that became reachable, sorted by name. A method's edges depend
// only on the class hierarchy, so growing a graph in steps yields the
// graph BuildCHA computes from the union of the steps' entries, provided
// the hierarchy does not change in between.
func (g *CHA) Extend(entries ...*ir.Method) []*ir.Method {
	var added []*ir.Method
	work := append([]*ir.Method(nil), entries...)
	for len(work) > 0 {
		m := work[len(work)-1]
		work = work[:len(work)-1]
		if m == nil || g.reachable[m] {
			continue
		}
		g.reachable[m] = true
		added = append(added, m)
		for _, blk := range m.Blocks {
			for _, s := range blk.Stmts {
				inv, ok := s.(*ir.Invoke)
				if !ok {
					continue
				}
				targets := g.resolve(inv)
				if len(targets) > 0 {
					g.callees[inv.Pos()] = targets
					work = append(work, targets...)
				}
			}
		}
	}
	sortByName(added)
	return added
}

// resolve returns the possible callees of inv under CHA.
func (g *CHA) resolve(inv *ir.Invoke) []*ir.Method {
	switch inv.Kind {
	case ir.InvokeStatic, ir.InvokeSpecial:
		if m := g.prog.ResolveMethod(inv.Class, inv.Method); m != nil {
			return []*ir.Method{m}
		}
		return nil
	default:
		seen := make(map[*ir.Method]bool)
		var out []*ir.Method
		add := func(m *ir.Method) {
			if m != nil && !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
		// The static type's own resolution…
		add(g.prog.ResolveMethod(inv.Class, inv.Method))
		// …plus every subtype override.
		for _, sub := range g.prog.SubclassesOf(inv.Class) {
			if m := sub.Methods[inv.Method]; m != nil {
				add(m)
			}
		}
		sortByName(out)
		return out
	}
}

// Callees returns the resolved targets of the call at p (nil for
// non-calls and framework no-ops).
func (g *CHA) Callees(p ir.Pos) []*ir.Method { return g.callees[p] }

// Reachable reports whether m is reachable from the entry points.
func (g *CHA) Reachable(m *ir.Method) bool { return g.reachable[m] }

// ReachableMethods returns all reachable methods sorted by name.
func (g *CHA) ReachableMethods() []*ir.Method {
	out := make([]*ir.Method, 0, len(g.reachable))
	for m := range g.reachable {
		out = append(out, m)
	}
	sortByName(out)
	return out
}

// sortByName sorts methods by qualified name.
func sortByName(ms []*ir.Method) {
	sort.Slice(ms, func(i, j int) bool {
		return ms[i].QualifiedName() < ms[j].QualifiedName()
	})
}

// ReachableFrom walks the methods reachable from roots along the
// graph's edges. It calls claim on each method it meets and expands only
// the ones claim accepts, so the caller's claim decides what counts as
// already visited. Everything reachable from a method in the graph is
// in the graph too, so a caller visiting several root sets in turn with
// one claim gets each method once, from the first root set that reaches
// it.
func (g *CHA) ReachableFrom(claim func(*ir.Method) bool, roots ...*ir.Method) {
	var work []*ir.Method
	for _, r := range roots {
		if r != nil && claim(r) {
			work = append(work, r)
		}
	}
	for i := 0; i < len(work); i++ {
		for _, blk := range work[i].Blocks {
			for _, s := range blk.Stmts {
				if _, ok := s.(*ir.Invoke); !ok {
					continue
				}
				for _, t := range g.callees[s.Pos()] {
					if claim(t) {
						work = append(work, t)
					}
				}
			}
		}
	}
}
