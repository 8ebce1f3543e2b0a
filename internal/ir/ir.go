// Package ir defines the intermediate representation SIERRA analyzes.
//
// It plays the role Dalvik bytecode (lifted into WALA IR) plays in the
// paper: a register-based, object-oriented IR with classes, fields,
// virtual dispatch, allocation sites, and per-method control-flow graphs.
// Apps under analysis — and the Android Framework model they run against —
// are both expressed in this IR.
package ir

import (
	"sort"
	"strconv"
	"sync/atomic"
)

// Program is a closed world of classes: the app's own classes plus the
// Android Framework model classes injected by the frontend.
type Program struct {
	classes map[string]*Class
	// nextSite hands out program-unique allocation site ids during Finalize.
	nextSite  int
	finalized bool
	// sorted and subtypes are the class-hierarchy index (hierarchy.go):
	// the name-sorted class list, nil until first needed, and each
	// name's direct subtypes.
	sorted   atomic.Pointer[[]*Class]
	subtypes map[string][]*Class
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{classes: make(map[string]*Class), subtypes: make(map[string][]*Class)}
}

// AddClass registers c. It panics on duplicate names: class names are the
// program-wide namespace every analysis keys on, so a collision is a bug in
// the app builder, not a recoverable condition. c's Super and Interfaces
// must not change afterwards: the class-hierarchy index is built from them.
func (p *Program) AddClass(c *Class) {
	if _, dup := p.classes[c.Name]; dup {
		panic("ir: duplicate class " + c.Name)
	}
	c.program = p
	p.classes[c.Name] = c
	p.indexClass(c)
}

// Class looks up a class by name, returning nil if absent.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// Classes returns all classes sorted by name for deterministic iteration.
// The slice is the caller's to modify.
func (p *Program) Classes() []*Class {
	sorted := p.sortedClasses()
	out := make([]*Class, len(sorted))
	copy(out, sorted)
	return out
}

// NumClasses reports the number of registered classes.
func (p *Program) NumClasses() int { return len(p.classes) }

// Finalize assigns program-unique allocation-site ids to every New
// statement and back-links statements to their methods. Analyses require
// a finalized program. Finalize is re-runnable: harness generation adds
// synthetic classes after an app is built, then finalizes again — already
// numbered sites keep their ids.
func (p *Program) Finalize() {
	for _, c := range p.Classes() {
		for _, m := range c.MethodsSorted() {
			for bi, b := range m.Blocks {
				b.Index = bi
				for si, s := range b.Stmts {
					if n, ok := s.(*New); ok && n.Site < 0 {
						n.Site = p.nextSite
						p.nextSite++
					}
					if setter, ok := s.(interface{ setPos(*Method, int, int) }); ok {
						setter.setPos(m, bi, si)
					}
				}
			}
		}
	}
	p.finalized = true
}

// Finalized reports whether Finalize has run.
func (p *Program) Finalized() bool { return p.finalized }

// NumAllocSites reports how many allocation sites Finalize numbered.
func (p *Program) NumAllocSites() int { return p.nextSite }

// IsSubtype reports whether class sub is a subtype of super (inclusive):
// whether super is on sub's superclass chain or among its transitively
// implemented interfaces. Unknown classes are not subtypes of anything
// but themselves.
func (p *Program) IsSubtype(sub, super string) bool {
	if sub == super {
		return true
	}
	// Most superclass chains implement no interface: walk those without
	// allocating. A chain longer than the class count has a cycle.
	c := p.classes[sub]
	for n := 0; c != nil && n <= len(p.classes); n++ {
		if c.Name == super {
			return true
		}
		if len(c.Interfaces) > 0 {
			return p.reaches(c, super)
		}
		if c.Super == "" {
			return false
		}
		c = p.classes[c.Super]
	}
	return false
}

// ResolveMethod performs virtual dispatch: it finds the implementation of
// method name on class cls, walking up the superclass chain. Returns nil
// if no implementation exists (e.g. a pure framework no-op).
func (p *Program) ResolveMethod(cls, name string) *Method {
	for c := p.classes[cls]; c != nil; c = p.classes[c.Super] {
		if m := c.Methods[name]; m != nil {
			return m
		}
		if c.Super == "" {
			return nil
		}
	}
	return nil
}

// SubclassesOf returns every class that is a strict subtype of root,
// sorted by name. Used for over-approximate dispatch on framework
// supertypes. The slice is the caller's to modify.
func (p *Program) SubclassesOf(root string) []*Class {
	return p.descendants(root)
}

// Class is a unit of the program: fields, methods, and its place in the
// hierarchy. Framework model classes have Framework set so the race
// prioritizer can distinguish app code from framework code.
type Class struct {
	Name       string
	Super      string
	Interfaces []string
	Fields     []string
	Methods    map[string]*Method
	// Framework marks Android Framework model classes (not app code).
	Framework bool
	// Library marks third-party library code bundled with the app; it is
	// app-code for analysis purposes but ranks below app code in reports.
	Library bool

	program *Program
}

// NewClass creates a class with no methods.
func NewClass(name, super string, interfaces ...string) *Class {
	return &Class{
		Name:       name,
		Super:      super,
		Interfaces: interfaces,
		Methods:    make(map[string]*Method),
	}
}

// HasField reports whether the class itself declares field f.
func (c *Class) HasField(f string) bool {
	for _, have := range c.Fields {
		if have == f {
			return true
		}
	}
	return false
}

// AddMethod attaches m to the class. Panics on duplicates (no overloading
// in this IR; distinct behaviours get distinct names).
func (c *Class) AddMethod(m *Method) {
	if _, dup := c.Methods[m.Name]; dup {
		panic("ir: duplicate method " + c.Name + "#" + m.Name)
	}
	m.Class = c
	c.Methods[m.Name] = m
}

// MethodsSorted returns the class's methods sorted by name.
func (c *Class) MethodsSorted() []*Method {
	out := make([]*Method, 0, len(c.Methods))
	for _, m := range c.Methods {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Program returns the owning program (nil before AddClass).
func (c *Class) Program() *Program { return c.program }

// Method is a single method body: parameters plus a CFG of basic blocks.
// Block 0 is the entry. The receiver variable is named "this" for instance
// methods.
type Method struct {
	Class  *Class
	Name   string
	Params []string
	Static bool
	Blocks []*Block
}

// QualifiedName returns "Class#method", the analysis-wide method key.
func (m *Method) QualifiedName() string {
	if m.Class == nil {
		return "?#" + m.Name
	}
	return m.Class.Name + "#" + m.Name
}

// Entry returns the entry block, or nil for a body-less method.
func (m *Method) Entry() *Block {
	if len(m.Blocks) == 0 {
		return nil
	}
	return m.Blocks[0]
}

// NumStmts counts statements across all blocks.
func (m *Method) NumStmts() int {
	n := 0
	for _, b := range m.Blocks {
		n += len(b.Stmts)
	}
	return n
}

// Block is a basic block: straight-line statements and successor edges.
// A block ending in *If has exactly two successors: Succs[0] is the true
// branch, Succs[1] the false branch. A block ending in *Return has none.
type Block struct {
	Index int
	Stmts []Stmt
	Succs []int
}

// Pos identifies a statement inside a method. It is the unit keyed on by
// dominance queries and by the backward symbolic executor.
type Pos struct {
	Method *Method
	Block  int
	Index  int
}

// Valid reports whether the position refers to an actual statement.
func (p Pos) Valid() bool {
	return p.Method != nil && p.Block < len(p.Method.Blocks) &&
		p.Index < len(p.Method.Blocks[p.Block].Stmts)
}

// Stmt returns the statement at this position.
func (p Pos) Stmt() Stmt { return p.Method.Blocks[p.Block].Stmts[p.Index] }

func (p Pos) String() string {
	if p.Method == nil {
		return "<nopos>"
	}
	return p.Method.QualifiedName() + "@" + strconv.Itoa(p.Block) + "." + strconv.Itoa(p.Index)
}
