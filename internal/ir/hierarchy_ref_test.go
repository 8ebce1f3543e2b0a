package ir

import (
	"fmt"
	"sort"
)

// The pre-index hierarchy walks, kept as the reference the class-hierarchy
// index is checked against. They recompute everything from the class map
// on every call, and refIsSubtype does not terminate on a cyclic
// hierarchy.

func refClasses(p *Program) []*Class {
	out := make([]*Class, 0, len(p.classes))
	for _, c := range p.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func refIsSubtype(p *Program, sub, super string) bool {
	if sub == super {
		return true
	}
	c := p.classes[sub]
	for c != nil {
		if c.Name == super {
			return true
		}
		for _, itf := range c.Interfaces {
			if refIsSubtype(p, itf, super) {
				return true
			}
		}
		if c.Super == "" {
			return false
		}
		c = p.classes[c.Super]
	}
	return false
}

func refSubclassesOf(p *Program, root string) []*Class {
	var out []*Class
	for _, c := range refClasses(p) {
		if c.Name != root && refIsSubtype(p, c.Name, root) {
			out = append(out, c)
		}
	}
	return out
}

// CheckHierarchyIndex compares Classes, IsSubtype and SubclassesOf
// against the reference walks, for every pair of names the program
// mentions: its classes, the supertypes they declare, and one unknown
// name. It returns the first difference.
func CheckHierarchyIndex(p *Program) error {
	if got, want := p.Classes(), refClasses(p); !sameClasses(got, want) {
		return fmt.Errorf("Classes: %d classes, want %d in name order", len(got), len(want))
	}
	names := map[string]bool{"": true, "no.such.Class": true}
	for _, c := range p.classes {
		names[c.Name] = true
		names[c.Super] = true
		for _, itf := range c.Interfaces {
			names[itf] = true
		}
	}
	for root := range names {
		if got, want := p.SubclassesOf(root), refSubclassesOf(p, root); !sameClasses(got, want) {
			return fmt.Errorf("SubclassesOf(%q): %s, want %s", root, classNames(got), classNames(want))
		}
		for sub := range names {
			if got, want := p.IsSubtype(sub, root), refIsSubtype(p, sub, root); got != want {
				return fmt.Errorf("IsSubtype(%q, %q) = %v, want %v", sub, root, got, want)
			}
		}
	}
	return nil
}

func sameClasses(a, b []*Class) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func classNames(cs []*Class) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}
