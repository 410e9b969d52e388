// The atomicmix rule: a field or variable accessed through sync/atomic
// anywhere in the module must never also be read or written plainly.
// Mixing the two voids the atomicity guarantee entirely — the plain
// access races with every atomic one, and the race detector only
// catches the interleavings that actually happen in a test run.
//
// The fact store records every `atomic.XxxInt64(&v)`-style target
// module-wide; this rule flags plain mentions of those objects.  The
// atomic sites themselves, composite-literal keys (pre-publication
// initialization) and test files are exempt.  Facts are consumed only
// from the package's import closure, so a package's findings do not
// depend on which other packages the run requested.
package lint

import (
	"go/ast"
	"go/token"
)

type atomicmixRule struct{}

func init() { Register(atomicmixRule{}) }

func (atomicmixRule) Name() string { return "atomicmix" }

func (atomicmixRule) Doc() string {
	return "no plain loads/stores of fields that are accessed via sync/atomic elsewhere"
}

func (atomicmixRule) Check(p *Package) []Finding {
	if p.Info == nil {
		return nil
	}
	visible := importClosure(p)
	var out []Finding
	for _, f := range p.Files {
		// Spans of atomic-call arguments: mentions inside them ARE the
		// atomic accesses and must not be flagged.
		type span struct{ lo, hi token.Pos }
		var atomicSpans []span
		compositeKeys := make(map[*ast.Ident]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if _, target := atomicCallTarget(p, x); target != nil {
					atomicSpans = append(atomicSpans, span{lo: x.Args[0].Pos(), hi: x.Args[0].End()})
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					compositeKeys[id] = true
				}
			}
			return true
		})
		inAtomic := func(pos token.Pos) bool {
			for _, s := range atomicSpans {
				if s.lo <= pos && pos < s.hi {
					return true
				}
			}
			return false
		}
		flagged := make(map[*ast.Ident]bool)
		flag := func(id *ast.Ident) {
			// A selector's Sel is visited both as part of the selector
			// and as a bare Ident; flag it once.
			if flagged[id] {
				return
			}
			flagged[id] = true
			obj := p.Info.Uses[id]
			if obj == nil || compositeKeys[id] || inAtomic(id.Pos()) {
				return
			}
			af, ok := p.Facts.AtomicAccess(obj)
			if !ok || !visible[af.Pkg] {
				return
			}
			out = append(out, Finding{
				Pos:  p.Fset.Position(id.Pos()),
				Rule: "atomicmix",
				Msg:  obj.Name() + " is accessed with " + af.Fn + " elsewhere but read/written plainly here",
				Hint: "use the matching sync/atomic operation (or an atomic.Int64-style typed field) for every access",
				Related: []Related{{
					Pos: af.Pos,
					Msg: "the atomic access is here",
				}},
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				flag(x.Sel)
				// Keep descending: the base expression may itself
				// mention another tracked object.
				return true
			case *ast.Ident:
				flag(x)
			}
			return true
		})
	}
	return out
}
