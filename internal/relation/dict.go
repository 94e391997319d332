package relation

// Dict interns strings to dense int32 ids and back. qagview stores cluster
// patterns and tuples as []int32, so all pattern operations (distance, LCA,
// coverage) compare integers instead of strings. This is the paper's "hash
// values for fields" optimization (Section 6.3), reported there to be worth
// about 50x on its own.
type Dict struct {
	ids  map[string]int32
	vals []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]int32)}
}

// ID interns s, returning its dense id (assigning the next free id on first
// sight).
func (d *Dict) ID(s string) int32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := int32(len(d.vals))
	d.ids[s] = id
	d.vals = append(d.vals, s)
	return id
}

// Lookup returns the id of s without interning.
func (d *Dict) Lookup(s string) (int32, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// Value returns the string for an id. It panics on out-of-range ids, which
// indicate corrupted pattern data.
func (d *Dict) Value(id int32) string { return d.vals[id] }

// Len returns the number of distinct interned values (the active domain
// size of the attribute).
func (d *Dict) Len() int { return len(d.vals) }

// Values returns the interned values in id order. The returned slice is
// shared; callers must not modify it.
func (d *Dict) Values() []string { return d.vals }
