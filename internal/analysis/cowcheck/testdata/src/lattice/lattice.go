// Package lattice is a hermetic fixture stub standing in for
// qagview/internal/lattice. It doubles as the in-package negative: writes to
// Cluster/Index state inside the owning package are the build code itself
// and are not flagged.
package lattice

import "relation"

type Cluster struct {
	ID  int32
	Cov []int32
	Sum float64
}

type Index struct {
	Clusters []Cluster
	Dicts    []*relation.Dict
}

// maintain is the owning package's own mutation path: exempt from rule 1.
func maintain(ix *Index) {
	ix.Clusters[0].Sum = 1
	ix.Clusters[0].Cov[0] = 2
	ix.Clusters[0] = Cluster{}
}
