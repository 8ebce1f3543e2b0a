package ir

import "fmt"

// Validate checks the structural invariants analyses rely on. The class
// hierarchy must be acyclic, and for every non-framework class:
//
//   - successor indices are in range;
//   - an If is the last statement of its block, which has exactly two
//     successors (then, else);
//   - a Return is the last statement of its block, which has none;
//   - a block with multiple successors ends in an If (no ambiguous
//     fall-through);
//   - statements never follow a terminator.
//
// The builder maintains these by construction; Validate guards
// hand-assembled methods and parsed input.
func (p *Program) Validate() error {
	if err := p.checkHierarchy(); err != nil {
		return err
	}
	for _, c := range p.Classes() {
		if c.Framework {
			continue
		}
		for _, m := range c.MethodsSorted() {
			if err := validateMethod(m); err != nil {
				return fmt.Errorf("%s: %w", m.QualifiedName(), err)
			}
		}
	}
	return nil
}

func validateMethod(m *Method) error {
	n := len(m.Blocks)
	for bi, blk := range m.Blocks {
		for _, s := range blk.Succs {
			if s < 0 || s >= n {
				return fmt.Errorf("block %d: successor %d out of range [0,%d)", bi, s, n)
			}
		}
		for si, s := range blk.Stmts {
			last := si == len(blk.Stmts)-1
			switch s.(type) {
			case *If:
				if !last {
					return fmt.Errorf("block %d: If at %d is not the block terminator", bi, si)
				}
				if len(blk.Succs) != 2 {
					return fmt.Errorf("block %d: If needs exactly 2 successors, has %d", bi, len(blk.Succs))
				}
			case *Return:
				if !last {
					return fmt.Errorf("block %d: statement follows Return at %d", bi, si)
				}
				if len(blk.Succs) != 0 {
					return fmt.Errorf("block %d: Return with %d successors", bi, len(blk.Succs))
				}
			}
		}
		if len(blk.Succs) > 1 {
			if len(blk.Stmts) == 0 {
				return fmt.Errorf("block %d: empty block with %d successors", bi, len(blk.Succs))
			}
			if _, ok := blk.Stmts[len(blk.Stmts)-1].(*If); !ok {
				return fmt.Errorf("block %d: multiple successors without an If terminator", bi)
			}
		}
	}
	return nil
}
