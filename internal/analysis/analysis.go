// Package analysis is a small, dependency-free reimplementation of the core
// of golang.org/x/tools/go/analysis, built only on the standard library's
// go/ast and go/types. It exists because qagview's correctness rests on
// invariants no generic linter can see — bit-identical determinism,
// immutable published indexes, pooled-state hygiene, cancellation
// observance, and lock scoping — and those contracts deserve machine
// checking, not folklore (see docs/ANALYZERS.md for the precise statements).
//
// The shape mirrors go/analysis on purpose: an Analyzer bundles a name, a
// doc string, and a Run function over a Pass; a Pass presents one
// type-checked package and collects Diagnostics. Drivers differ: the
// `go vet -vettool` protocol driver lives in internal/analysis/unit, and the
// fixture-based test harness in internal/analysis/analysistest.
//
// All analyzers honor a shared suppression syntax:
//
//	//qag:allow <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason is
// mandatory; an allow comment without one is itself reported. detiter
// additionally accepts the shorthand //qag:det (see suppress.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //qag:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant checked.
	Doc string
	// Run reports violations found in the pass's package.
	Run func(*Pass) error
}

// Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Analyzer names the reporting analyzer.
	Analyzer string
	// Pos locates the violation.
	Pos token.Pos
	// Message states the violation and, where possible, the fix.
	Message string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// Run runs every analyzer over one type-checked package, applies //qag:allow
// suppression, and returns the surviving diagnostics sorted by position.
// Malformed allow comments (missing analyzer name or reason) are reported as
// diagnostics of the pseudo-analyzer "qagallow".
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	sup := collectSuppressions(fset, files)
	var out []Diagnostic
	out = append(out, sup.malformed...)
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			if !sup.suppressed(a.Name, fset.Position(d.Pos)) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// NewInfo returns a types.Info with every map analyzers rely on populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
