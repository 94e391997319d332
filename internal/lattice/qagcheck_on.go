//go:build qagcheck

package lattice

import "fmt"

// Built with -tags qagcheck, every index handed out by a build is verified
// against the structural invariants the rest of the system assumes (and
// qagvet checks callers against statically): coverage lists strictly
// ascending, and the packed codec wide enough for every dictionary's active
// domain. Violations panic: a broken index is a determinism bug in the build
// code, not a recoverable condition.
func assertIndexInvariants(ix *Index, origin string) {
	if ix == nil {
		return
	}
	for ci := range ix.Clusters {
		cov := ix.Clusters[ci].Cov
		for i := 1; i < len(cov); i++ {
			if cov[i-1] >= cov[i] {
				panic(fmt.Sprintf("qagcheck: %s: cluster %d coverage not strictly ascending at offset %d (%d then %d)", origin, ci, i, cov[i-1], cov[i]))
			}
		}
		if n := int32(ix.Space.N()); len(cov) > 0 && (cov[0] < 0 || cov[len(cov)-1] >= n) {
			panic(fmt.Sprintf("qagcheck: %s: cluster %d coverage out of tuple range [0, %d)", origin, ci, n))
		}
	}
	if ix.codec != nil {
		for j, d := range ix.Space.Dicts {
			if !ix.codec.CardFits(j, d.Len()) {
				panic(fmt.Sprintf("qagcheck: %s: codec field %d cannot hold dictionary cardinality %d; packing would alias the Star sentinel", origin, j, d.Len()))
			}
		}
	}
}
