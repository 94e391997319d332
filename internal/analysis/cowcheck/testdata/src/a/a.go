// Package a exercises cowcheck from outside the owning packages.
package a

import (
	"lattice"
	"relation"
)

// Rule 1: field writes to published index state.
func fieldWrites(ix *lattice.Index, c *lattice.Cluster) {
	c.Sum = 3.0                      // want `write to lattice.Cluster.Sum outside internal/lattice`
	ix.Clusters[0].Sum = 1           // want `write to lattice.Cluster.Sum outside internal/lattice`
	ix.Clusters[0] = *c              // want `write into lattice.Index.Clusters outside internal/lattice`
	ix.Dicts[0] = relation.NewDict() // want `write into lattice.Index.Dicts outside internal/lattice`
}

// Rule 1: writes through coverage-arena views, direct and via aliases.
func covWrites(c *lattice.Cluster) {
	c.Cov[0] = 1 // want `write through a coverage-arena subslice`
	cov := c.Cov
	cov[1] = 2 // want `write through a coverage-arena subslice`
	tail := cov[1:]
	tail[0] = 3 // want `write through a coverage-arena subslice`
}

// Reading coverage is what the views are for.
func covReads(c *lattice.Cluster) int32 {
	var total int32
	cov := c.Cov
	for _, id := range cov {
		total += id
	}
	return total + c.Cov[0]
}

// Rule 2: interning into a possibly-shared dictionary.
func internShared(d *relation.Dict) int32 {
	return d.ID("v") // want `Dict.ID interns \(mutates\) a dictionary that may be shared`
}

// Fresh construction owns the dictionary outright (the NewSpace idiom).
func internFresh(vals []string) *relation.Dict {
	d := relation.NewDict()
	for _, v := range vals {
		d.ID(v)
	}
	return d
}

// Lookup is the read-only query.
func lookupOnly(d *relation.Dict) (int32, bool) {
	return d.Lookup("v")
}

// Suppression: a justified exception is honored.
func allowedWrite(c *lattice.Cluster) {
	//qag:allow cowcheck fixture: cluster is a private deep copy under test
	c.Sum = 9
}
