package pattern

import "math/bits"

// Codec packs whole patterns into single uint64 words. Each attribute gets a
// bit field just wide enough for its active domain plus the Star sentinel
// (the all-ones field value, which no dictionary id can take), so a pattern
// over m attributes becomes one integer usable directly as a hash key, and
// the pattern algebra (Covers, Distance, LCA, Level) runs word-parallel on
// masks and popcounts instead of looping over []int32 positions.
//
// A codec exists only when the widths fit: NewCodec reports ok = false when
// the summed field widths exceed 64 bits, and callers fall back to the slice
// representation. Packing is injective (each distinct pattern has one key),
// and all operations agree exactly with their slice counterparts — see the
// property tests in packed_test.go.
type Codec struct {
	m     int
	shift []uint8  // field bit offset per attribute; fields are contiguous from bit 0
	field []uint64 // all-ones mask over each attribute's field (== the Star sentinel)

	// prefix[j] is the union of field[0..j-1]: the low-field mask used by the
	// packed ancestor enumeration ((1 << shift[j]) - 1, since fields are
	// contiguous).
	prefix []uint64

	hiMask  uint64 // the top bit of every field
	loMask  uint64 // every field bit except its top bit
	allMask uint64 // every field bit (== the all-star pattern)

	// fieldAt maps a bit position to the attribute whose field contains it,
	// for expanding per-field indicator bits back to full field masks.
	fieldAt [64]uint8
}

// NewCodec derives field widths from per-attribute cardinalities (active
// domain sizes): attribute j gets the narrowest field holding ids 0..cards[j]-1
// plus the all-ones Star sentinel. It returns ok = false — no codec — when the
// total width exceeds 64 bits and callers must keep the slice representation.
func NewCodec(cards []int) (*Codec, bool) {
	m := len(cards)
	if m == 0 || m > MaxAttrs {
		return nil, false
	}
	c := &Codec{
		m:      m,
		shift:  make([]uint8, m),
		field:  make([]uint64, m),
		prefix: make([]uint64, m+1),
	}
	off := 0
	for j, card := range cards {
		// Need (1<<w)-1 > card-1, i.e. 1<<w >= card+1: ids stay below the
		// all-ones sentinel.
		w := bits.Len(uint(card))
		if w == 0 {
			w = 1
		}
		if off+w > 64 {
			return nil, false
		}
		c.shift[j] = uint8(off)
		c.field[j] = ((uint64(1) << w) - 1) << off
		c.prefix[j] = (uint64(1) << off) - 1
		c.hiMask |= uint64(1) << (off + w - 1)
		for b := off; b < off+w; b++ {
			c.fieldAt[b] = uint8(j)
		}
		off += w
	}
	if off == 64 {
		c.prefix[m] = ^uint64(0)
	} else {
		c.prefix[m] = (uint64(1) << off) - 1
	}
	c.allMask = c.prefix[m]
	c.loMask = c.allMask &^ c.hiMask
	return c, true
}

// M returns the number of attributes the codec packs.
func (c *Codec) M() int { return c.m }

// Field returns the all-ones mask over attribute j's bit field — the packed
// Star sentinel for that attribute. Or-ing it into a packed key stars the
// attribute (a cluster's lattice parent in O(1)); the vectorized executor
// reads the field widths from it.
func (c *Codec) Field(j int) uint64 { return c.field[j] }

// CardFits reports whether attribute j's field can hold an active domain of
// the given cardinality: every id 0..card-1 must stay strictly below the
// all-ones Star sentinel. The qagcheck assertions use it to verify that a
// built index's codec holds every dictionary's active domain.
func (c *Codec) CardFits(j, card int) bool {
	return uint64(card) <= c.field[j]>>c.shift[j]
}

// AllStar returns the packed all-star pattern (every field all-ones).
func (c *Codec) AllStar() uint64 { return c.allMask }

// Pack encodes p, which must have m attributes with every concrete value in
// its field's range (true for any pattern over the codec's dictionaries).
// Use PackChecked for patterns from untrusted sources.
func (c *Codec) Pack(p Pattern) uint64 {
	var key uint64
	for j, v := range p {
		if v == Star {
			key |= c.field[j]
		} else {
			key |= uint64(uint32(v)) << c.shift[j]
		}
	}
	return key
}

// PackChecked is Pack validating arity and field ranges: it reports ok =
// false when p has the wrong number of attributes or a concrete value that
// does not fit its field below the Star sentinel (such a pattern cannot
// equal any packed pattern of this codec's space, so lookups by key must
// treat it as absent rather than risk a colliding encoding).
func (c *Codec) PackChecked(p Pattern) (uint64, bool) {
	if len(p) != c.m {
		return 0, false
	}
	var key uint64
	for j, v := range p {
		if v == Star {
			key |= c.field[j]
			continue
		}
		// Validate before shifting: a shift can push high bits off the word
		// and alias a different (valid) key. Values must stay strictly below
		// the all-ones sentinel.
		if v < 0 || uint64(v) >= c.field[j]>>c.shift[j] {
			return 0, false
		}
		key |= uint64(v) << c.shift[j]
	}
	return key, true
}

// Unpack decodes key into dst, which must have m attributes.
func (c *Codec) Unpack(key uint64, dst Pattern) {
	for j := range dst {
		f := key & c.field[j]
		if f == c.field[j] {
			dst[j] = Star
		} else {
			dst[j] = int32(f >> c.shift[j])
		}
	}
}

// nonzero returns a per-field indicator of the fields of x that are nonzero,
// one bit at each such field's top position (the SWAR carry trick: adding the
// low-bits mask to a field's low bits carries into its top bit exactly when
// some low bit is set; carries cannot cross fields because each sum stays
// below the field's capacity).
func (c *Codec) nonzero(x uint64) uint64 {
	return ((x & c.loMask) + c.loMask | x) & c.hiMask
}

// starBits returns a per-field indicator (top bit of each field) of the
// fields of p that hold the Star sentinel: exactly the fields where the
// complement within the field mask is zero.
func (c *Codec) starBits(p uint64) uint64 {
	return c.hiMask &^ c.nonzero(p^c.allMask)
}

// Covers reports whether packed p covers packed q: every field of p is Star
// or equal to q's. It is the word-parallel equivalent of Pattern.Covers.
func (c *Codec) Covers(p, q uint64) bool {
	return c.nonzero(p^q)&^c.starBits(p) == 0
}

// Distance is the cluster distance of Definition 3.1 on packed patterns: the
// popcount of the per-field indicator of fields where the sides differ or at
// least one is Star. (A Star differs bitwise from every concrete id, so the
// xor term already covers star-vs-concrete fields; star-vs-star is added by
// the starBits term.)
func (c *Codec) Distance(p, q uint64) int {
	return bits.OnesCount64(c.nonzero(p^q) | c.starBits(p))
}

// Level returns the semilattice level of packed p (its number of Stars).
func (c *Codec) Level(p uint64) int {
	return bits.OnesCount64(c.starBits(p))
}

// LCA returns the packed least common ancestor: fields where p and q agree on
// a concrete value are kept, every other field becomes Star. The fields to
// star arrive as one indicator word; each set bit is expanded to its full
// field mask (iterating only set bits, like a popcount loop).
func (c *Codec) LCA(p, q uint64) uint64 {
	r := p
	for s := c.nonzero(p^q) | c.starBits(p); s != 0; s &= s - 1 {
		r |= c.field[c.fieldAt[bits.TrailingZeros64(s)]]
	}
	return r
}

// Ancestors enumerates the packed keys of all 2^m generalizations of the
// packed concrete tuple base, in the same subset-bitmask order as Ancestors
// (bit j of the mask = attribute j starred): the tuple itself first, the
// all-star pattern last. Each step costs O(1) words: incrementing the subset
// mask clears a run of trailing fields and stars one new field, so the
// accumulated star mask is patched with two precomputed masks instead of
// being rebuilt per ancestor.
func (c *Codec) Ancestors(base uint64, fn func(uint64)) {
	fn(base) // mask 0: the concrete tuple
	var acc uint64
	for mask, last := uint32(1), uint32(1)<<c.m; mask < last; mask++ {
		k := bits.TrailingZeros32(mask)
		acc = acc&^c.prefix[k] | c.field[k]
		fn(base | acc)
	}
}

// AppendAncestors appends the same 2^m keys as Ancestors, in the same order,
// to dst and returns it. Enumerating into a reused buffer removes the
// callback indirection per ancestor, which matters in the cluster-mapping
// loop that runs this once per tuple.
func (c *Codec) AppendAncestors(base uint64, dst []uint64) []uint64 {
	dst = append(dst, base)
	var acc uint64
	for mask, last := uint32(1), uint32(1)<<c.m; mask < last; mask++ {
		k := bits.TrailingZeros32(mask)
		acc = acc&^c.prefix[k] | c.field[k]
		dst = append(dst, base|acc)
	}
	return dst
}
