// Package relation is a hermetic fixture stub standing in for
// qagview/internal/relation: cowcheck matches types by package-path segment,
// so only the shapes matter.
package relation

type Dict struct{ m map[string]int32 }

func NewDict() *Dict { return &Dict{m: make(map[string]int32)} }

// ID interns (mutates); Lookup is read-only.
func (d *Dict) ID(v string) int32 { return 0 }

func (d *Dict) Lookup(v string) (int32, bool) { return 0, false }
