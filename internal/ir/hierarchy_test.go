package ir

import (
	"strings"
	"sync"
	"testing"
)

// hierarchyFixture has a superclass chain, a class implementing an
// interface that extends another, an interface no class defines, and a
// class whose superclass is missing.
func hierarchyFixture() *Program {
	p := NewProgram()
	p.AddClass(NewClass("Object", ""))
	p.AddClass(NewClass("Base", "Object", "Iface"))
	p.AddClass(NewClass("Iface", "", "IfaceRoot"))
	p.AddClass(NewClass("IfaceRoot", ""))
	p.AddClass(NewClass("Mid", "Base"))
	p.AddClass(NewClass("Leaf", "Mid", "Ghost"))
	p.AddClass(NewClass("Orphan", "Missing"))
	return p
}

func TestHierarchyIndexMatchesReference(t *testing.T) {
	p := hierarchyFixture()
	if err := CheckHierarchyIndex(p); err != nil {
		t.Fatal(err)
	}
	// The reference's asymmetry: a missing interface counts as a
	// supertype, a missing superclass does not.
	if !p.IsSubtype("Leaf", "Ghost") || p.IsSubtype("Orphan", "Missing") {
		t.Error("missing supertypes indexed unlike the reference walk")
	}
}

// TestAddClassAfterQuery queries the index, then adds a class below an
// indexed one and the missing superclass (and the missing interface) of
// existing classes: each changes later answers, and a slice handed out
// earlier keeps its contents.
func TestAddClassAfterQuery(t *testing.T) {
	p := hierarchyFixture()
	before := p.SubclassesOf("Object")
	snapshot := append([]*Class(nil), before...)
	p.AddClass(NewClass("Aardvark", "Mid"))
	if !sameClasses(before, snapshot) {
		t.Errorf("AddClass rewrote a handed-out slice: %s, was %s", classNames(before), classNames(snapshot))
	}
	if got := classNames(p.SubclassesOf("Object")); got[0] != "Aardvark" {
		t.Errorf("SubclassesOf(Object) = %v, want Aardvark first", got)
	}
	if p.IsSubtype("Orphan", "Object") || len(p.SubclassesOf("Missing")) != 0 {
		t.Fatal("Orphan has no known ancestors yet")
	}
	p.AddClass(NewClass("Missing", "Object"))
	if !p.IsSubtype("Orphan", "Object") {
		t.Error("Orphan should reach Object through the added superclass")
	}
	if got := classNames(p.SubclassesOf("Missing")); len(got) != 1 || got[0] != "Orphan" {
		t.Errorf("SubclassesOf(Missing) = %v, want [Orphan]", got)
	}
	p.AddClass(NewClass("Ghost", "", "IfaceRoot"))
	if !p.IsSubtype("Leaf", "IfaceRoot") {
		t.Error("Leaf should reach IfaceRoot through Ghost")
	}
	if err := CheckHierarchyIndex(p); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchyConcurrentReaders races readers on a program whose
// sorted class list is not built yet; under -race it checks that
// building, publishing and reading the index is free of data races.
func TestHierarchyConcurrentReaders(t *testing.T) {
	p := hierarchyFixture()
	p.AddClass(NewClass("Missing", "Object"))
	if p.sorted.Load() != nil {
		t.Fatal("the sorted class list is built before any query")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if !p.IsSubtype("Leaf", "IfaceRoot") || !p.IsSubtype("Orphan", "Object") {
					t.Error("IsSubtype lost an edge")
					return
				}
				if n := len(p.SubclassesOf("Base")); n != 2 {
					t.Errorf("SubclassesOf(Base) = %d classes, want 2", n)
					return
				}
				if n := len(p.Classes()); n != 8 {
					t.Errorf("Classes = %d, want 8", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCyclicHierarchy checks that queries terminate on cyclic input and
// that Validate names the cycle.
func TestCyclicHierarchy(t *testing.T) {
	for _, tc := range []struct {
		name    string
		classes []*Class
		cycle   string
	}{
		{"superclass", []*Class{NewClass("A", "B"), NewClass("B", "A"), NewClass("C", "A")}, "A -> B -> A"},
		{"interface", []*Class{NewClass("I1", "", "I2"), NewClass("I2", "", "I1"), NewClass("C", "Object", "I1")}, "I1 -> I2 -> I1"},
		{"self", []*Class{NewClass("S", "S")}, "S -> S"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProgram()
			p.AddClass(NewClass("Object", ""))
			for _, c := range tc.classes {
				p.AddClass(c)
			}
			if p.IsSubtype("C", "Missing") || len(p.SubclassesOf("Missing")) != 0 {
				t.Error("unknown supertype reported")
			}
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.cycle) {
				t.Fatalf("Validate = %v, want the cycle %s", err, tc.cycle)
			}
		})
	}
}
