package ir

import (
	"fmt"
	"sort"
	"strings"
)

// The class-hierarchy index answers Classes, IsSubtype and SubclassesOf
// without sorting or scanning the class map. It has two parts, each
// linear in the number of classes and supertype names: the name-sorted
// class list (Program.sorted) and the direct-subtype edges
// (Program.subtypes), which map a name to the classes that declare it
// as their superclass or an interface, whether or not a class of that
// name exists. IsSubtype walks up from the subtype, SubclassesOf walks
// the edges down from the root, so each costs the part of the hierarchy
// it touches. Neither materializes the transitive closure, which is
// quadratic in the depth of a hierarchy.
//
// AddClass maintains the edges and drops the sorted list; like the class
// map itself, it must not run concurrently with readers. The sorted list
// is built on first use and published through an atomic pointer, so
// concurrent readers that race to build it each build an equal one and
// all use the first one published. A published list is never written
// again.

// sortedClasses returns every class by name, building the list if
// needed.
func (p *Program) sortedClasses() []*Class {
	if s := p.sorted.Load(); s != nil {
		return *s
	}
	s := make([]*Class, 0, len(p.classes))
	for _, c := range p.classes {
		s = append(s, c)
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	if p.sorted.CompareAndSwap(nil, &s) {
		return s
	}
	return *p.sorted.Load()
}

// indexClass adds c, just added to the class map, to the index.
func (p *Program) indexClass(c *Class) {
	p.sorted.Store(nil)
	if c.Super != "" {
		p.subtypes[c.Super] = append(p.subtypes[c.Super], c)
	}
	for _, itf := range c.Interfaces {
		p.subtypes[itf] = append(p.subtypes[itf], c)
	}
}

// reaches reports whether super is an ancestor of c: on its superclass
// chain or among its transitively implemented interfaces. An interface
// name counts even when no class of that name exists; a missing
// superclass ends the chain without counting. The visited set makes the
// walk terminate on a cyclic hierarchy too.
func (p *Program) reaches(c *Class, super string) bool {
	seen := map[string]bool{c.Name: true}
	work := []*Class{c}
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		if x.Name == super {
			return true
		}
		for _, itf := range x.Interfaces {
			if itf == super {
				return true
			}
			if !seen[itf] {
				seen[itf] = true
				if ic := p.classes[itf]; ic != nil {
					work = append(work, ic)
				}
			}
		}
		if x.Super != "" && !seen[x.Super] {
			seen[x.Super] = true
			if sc := p.classes[x.Super]; sc != nil {
				work = append(work, sc)
			}
		}
	}
	return false
}

// descendants returns the strict subtypes of root sorted by name: the
// classes that reaches root, found by walking the direct-subtype edges
// down from it. A class whose missing superclass is root is not one,
// the mirror of reaches.
func (p *Program) descendants(root string) []*Class {
	seen := map[*Class]bool{}
	var out []*Class
	rootExists := p.classes[root] != nil
	for _, d := range p.subtypes[root] {
		if rootExists || contains(d.Interfaces, root) {
			seen[d] = true
			out = append(out, d)
		}
	}
	for i := 0; i < len(out); i++ {
		for _, d := range p.subtypes[out[i].Name] {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	// On a cyclic hierarchy the walk comes back to root.
	if rc := p.classes[root]; seen[rc] {
		for i, d := range out {
			if d == rc {
				out = append(out[:i], out[i+1:]...)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// checkHierarchy reports a cycle among the superclass and interface
// edges between the program's classes: input on which a superclass walk
// such as ResolveMethod never ends. The error names the first cycle
// found, visiting classes by name and each class's superclass before
// its interfaces. The depth-first walk keeps its own stack, so a deep
// hierarchy cannot overflow the goroutine's.
func (p *Program) checkHierarchy() error {
	const (
		unvisited = iota
		onPath
		done
	)
	type frame struct {
		c    *Class
		next int // 0 is the superclass, i > 0 is Interfaces[i-1]
	}
	state := make(map[string]int, len(p.classes))
	var stack []frame
	for _, root := range p.sortedClasses() {
		if state[root.Name] != unvisited {
			continue
		}
		state[root.Name] = onPath
		stack = append(stack[:0], frame{c: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next > len(f.c.Interfaces) {
				state[f.c.Name] = done
				stack = stack[:len(stack)-1]
				continue
			}
			n := f.c.Super
			if f.next > 0 {
				n = f.c.Interfaces[f.next-1]
			}
			f.next++
			d := p.classes[n]
			if n == "" || d == nil {
				continue
			}
			switch state[n] {
			case onPath:
				i := len(stack) - 1
				for stack[i].c.Name != n {
					i--
				}
				names := make([]string, 0, len(stack)-i+1)
				for _, g := range stack[i:] {
					names = append(names, g.c.Name)
				}
				return fmt.Errorf("class hierarchy cycle: %s", strings.Join(append(names, n), " -> "))
			case unvisited:
				state[n] = onPath
				stack = append(stack, frame{c: d})
			}
		}
	}
	return nil
}
