// Package cowcheck machine-checks that published cluster spaces stay
// immutable: a lattice.Index is an immutable snapshot — concurrent readers
// (summarize runs, in-flight precompute sweeps) hold it without
// synchronization — so a changed answer set gets a new index from
// BuildIndex, and no code outside the owning packages writes into an index
// or extends a dictionary it did not create.
//
// Rules:
//
//  1. Foreign index writes: outside internal/lattice, any write to a field
//     of lattice.Cluster or lattice.Index (`c.Sum = ...`,
//     `ix.Clusters[i] = ...`), or through a coverage-arena subslice
//     (`c.Cov[i] = ...`, including one-level local aliases
//     `cov := c.Cov; cov[i] = ...`), is flagged. Cluster.Cov is a view into
//     the index's shared arena: writing one cluster's view corrupts its
//     neighbors for every reader of the index.
//
//  2. Dict mutation of a dictionary the function does not own: outside
//     internal/relation, calling the interning method relation.Dict.ID —
//     which mutates the dictionary — is flagged unless a relation.NewDict
//     call appears earlier in the same function: fresh construction (the
//     lattice.NewSpace idiom) establishes ownership of the dictionary being
//     extended. Lookup is the read-only query and is always fine.
package cowcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"qagview/internal/analysis"
)

// Analyzer is the cowcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "cowcheck",
	Doc:  "flags violations of the lattice.Index / relation.Dict copy-on-write contract",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	inLattice := analysis.PkgSegment(pass.Pkg, "lattice")
	inRelation := analysis.PkgSegment(pass.Pkg, "relation")
	analysis.FuncBodies(pass.Files, func(body *ast.BlockStmt) {
		covAliases := collectCovAliases(pass, body)
		var firstOwned token.Pos = token.NoPos
		if !inRelation {
			firstOwned = firstDictOwned(pass, body)
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if !inLattice {
					for _, lhs := range st.Lhs {
						checkWrite(pass, covAliases, lhs)
					}
				}
			case *ast.IncDecStmt:
				if !inLattice {
					checkWrite(pass, covAliases, st.X)
				}
			case *ast.CallExpr:
				if !inRelation {
					checkDictMutation(pass, st, firstOwned)
				}
			}
			return true
		})
	})
	return nil
}

// checkWrite flags assignments through lattice-owned state.
func checkWrite(pass *analysis.Pass, covAliases map[types.Object]bool, lhs ast.Expr) {
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		// c.Sum = ..., ix.Clusters = ... — direct field writes.
		if t := pass.TypeOf(l.X); isLatticeOwned(t) {
			pass.Reportf(lhs.Pos(), "write to lattice.%s.%s outside internal/lattice: published indexes are immutable copy-on-write snapshots; build a new index with BuildIndex", analysis.Deref(t).(*types.Named).Obj().Name(), l.Sel.Name)
		}
	case *ast.IndexExpr:
		// c.Cov[i] = ..., cov[i] = ... (alias), ix.Clusters[i] = ...
		if isCovView(pass, covAliases, l.X) {
			pass.Reportf(lhs.Pos(), "write through a coverage-arena subslice outside internal/lattice: Cluster.Cov views the index's shared arena, so this corrupts other clusters for every reader; build a new index with BuildIndex")
			return
		}
		if sel, ok := l.X.(*ast.SelectorExpr); ok {
			if t := pass.TypeOf(sel.X); isLatticeOwned(t) {
				pass.Reportf(lhs.Pos(), "write into lattice.%s.%s outside internal/lattice: published indexes are immutable copy-on-write snapshots", analysis.Deref(t).(*types.Named).Obj().Name(), sel.Sel.Name)
			}
		}
	}
}

// isCovView reports whether e denotes a Cluster.Cov subslice: the selector
// itself or a local alias assigned from one.
func isCovView(pass *analysis.Pass, covAliases map[types.Object]bool, e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return sel.Sel.Name == "Cov" && analysis.IsNamed(pass.TypeOf(sel.X), "lattice", "Cluster")
	}
	if id, ok := e.(*ast.Ident); ok {
		return covAliases[pass.ObjectOf(id)]
	}
	return false
}

// collectCovAliases finds local variables assigned (one level) from a
// Cluster.Cov selector, in source order.
func collectCovAliases(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	aliases := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			rhs := as.Rhs[i]
			// Slicing an alias keeps it an alias: cov2 := cov[1:].
			if sl, ok := rhs.(*ast.SliceExpr); ok {
				rhs = sl.X
			}
			if isCovView(pass, aliases, rhs) {
				if obj := pass.ObjectOf(id); obj != nil {
					aliases[obj] = true
				}
			}
		}
		return true
	})
	return aliases
}

func isLatticeOwned(t types.Type) bool {
	return analysis.IsNamed(t, "lattice", "Cluster") || analysis.IsNamed(t, "lattice", "Index")
}

// checkDictMutation flags Dict.ID calls with no earlier NewDict call in the
// same function.
func checkDictMutation(pass *analysis.Pass, call *ast.CallExpr, firstOwned token.Pos) {
	recv, ok := analysis.MethodCall(call, "ID")
	if !ok || !analysis.IsNamed(pass.TypeOf(recv), "relation", "Dict") {
		return
	}
	if firstOwned != token.NoPos && firstOwned < call.Pos() {
		return
	}
	pass.Reportf(call.Pos(), "Dict.ID interns (mutates) a dictionary that may be shared with a published index; intern only into a dictionary this function created with NewDict (see lattice.NewSpace), or use the read-only Lookup")
}

// firstDictOwned returns the position of the first NewDict call — the one
// way a function comes to own a dictionary — or NoPos.
func firstDictOwned(pass *analysis.Pass, body *ast.BlockStmt) token.Pos {
	pos := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Inspect visits in source order, so the first match is the earliest.
		if pos == token.NoPos && analysis.CalleeName(call) == "NewDict" && analysis.IsNamed(pass.TypeOf(call), "relation", "Dict") {
			pos = call.Pos()
		}
		return true
	})
	return pos
}
