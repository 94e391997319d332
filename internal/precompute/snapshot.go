package precompute

import (
	"encoding/gob"
	"fmt"
	"io"

	"qagview/internal/intervaltree"
	"qagview/internal/lattice"
)

// snapshot is the wire form of a Store. Cluster ids refer to the index the
// store was computed against; decoding therefore requires rebuilding the
// identical index (index construction is deterministic for a given answer
// set and L, so persisting the query result alongside the snapshot is
// sufficient).
type snapshot struct {
	L, KMin, KMax int
	Ds            []int
	PerD          []snapshotEntry // aligned with Ds
	NumClusters   int             // sanity check against the index at decode time
	// Generation is the data generation the store was computed over (see
	// WithGeneration); snapshots written before versioning decode as 0.
	Generation uint64
}

type snapshotEntry struct {
	Intervals []intervaltree.Interval
	Avg       []float64
	MinSize   int
}

// Encode serializes the store with encoding/gob. Per-D entries are written
// in Ds order, so equal stores encode to equal bytes.
func (s *Store) Encode(w io.Writer) error {
	snap := snapshot{
		L: s.L, KMin: s.KMin, KMax: s.KMax,
		Ds:          append([]int(nil), s.Ds...),
		PerD:        make([]snapshotEntry, len(s.Ds)),
		NumClusters: s.ix.NumClusters(),
		Generation:  s.gen,
	}
	for i, d := range s.Ds {
		e := s.perD[d]
		snap.PerD[i] = snapshotEntry{
			Intervals: e.ivs,
			Avg:       append([]float64(nil), e.avg...),
			MinSize:   e.minSize,
		}
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("precompute: encoding store: %w", err)
	}
	return nil
}

// Decode reconstructs a store previously written by Encode, binding it to
// ix, which must be the index (same answer set and L) the store was computed
// against.
func Decode(r io.Reader, ix *lattice.Index) (*Store, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("precompute: decoding store: %w", err)
	}
	if snap.NumClusters != ix.NumClusters() {
		return nil, fmt.Errorf("precompute: snapshot was computed against an index with %d clusters, this index has %d",
			snap.NumClusters, ix.NumClusters())
	}
	if snap.L != ix.L {
		return nil, fmt.Errorf("precompute: snapshot L = %d but index L = %d", snap.L, ix.L)
	}
	if err := snap.validate(); err != nil {
		return nil, err
	}
	st := &Store{
		ix: ix, L: snap.L, KMin: snap.KMin, KMax: snap.KMax,
		Ds:   snap.Ds,
		perD: make(map[int]*dEntry, len(snap.PerD)),
		gen:  snap.Generation,
	}
	for i, e := range snap.PerD {
		for _, iv := range e.Intervals {
			if iv.Payload < 0 || int(iv.Payload) >= ix.NumClusters() {
				return nil, fmt.Errorf("precompute: snapshot references cluster %d outside the index", iv.Payload)
			}
		}
		tree, err := intervaltree.Build(e.Intervals)
		if err != nil {
			return nil, err
		}
		st.perD[snap.Ds[i]] = &dEntry{tree: tree, ivs: e.Intervals, avg: e.Avg, minSize: e.MinSize}
	}
	return st, nil
}

// validate rejects a decoded snapshot whose grid the retrieval paths would
// index out of bounds: Value and Guidance read Avg[k-KMin] for every k in
// [KMin, KMax] and every D in Ds.
func (snap *snapshot) validate() error {
	if err := validateGrid(snap.KMin, snap.KMax, snap.Ds); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if len(snap.PerD) != len(snap.Ds) {
		return fmt.Errorf("precompute: snapshot has entries for %d D values but lists %v", len(snap.PerD), snap.Ds)
	}
	for i, d := range snap.Ds {
		e := snap.PerD[i]
		if want := snap.KMax - snap.KMin + 1; len(e.Avg) != want {
			return fmt.Errorf("precompute: snapshot D = %d has %d objective values, want %d", d, len(e.Avg), want)
		}
		if e.MinSize < 1 || e.MinSize > snap.KMax {
			return fmt.Errorf("precompute: snapshot D = %d minimum size %d outside [1, %d]", d, e.MinSize, snap.KMax)
		}
	}
	return nil
}
