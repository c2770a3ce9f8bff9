// Block is the columnar metadata layout of a base segment: one typed
// array per field plus a presence bitset, built when a segment is
// compacted (or a bundle reopens) and immutable afterwards — the same
// lifecycle as the base vector block it sits beside. Delta rows stay
// row-oriented Maps; only the compacted base pays for columns, which is
// where the rows (and the win of word-at-a-time evaluation) are.
package meta

import "slices"

// Column is one field's values across a block's rows: a presence bitset
// and a dense array of the field's kind. Absent rows hold the zero
// value and a clear presence bit.
type column struct {
	kind    Kind
	present []uint64
	ints    []int64
	flts    []float64
	codes   []uint32 // KindString: each row's index into dict
	dict    []string // KindString: the distinct values, in first-seen order
	bools   []uint64 // value bitset for KindBool

	// codeOf inverts dict while NewBlock builds the column; it is nil in
	// a finished block.
	codeOf map[string]uint32
}

// Block holds the columns of one base segment. A nil *Block is the
// canonical "no metadata" block: every row reads as an empty Map.
type Block struct {
	rows int
	cols map[string]*column
}

// NewBlock builds a columnar block from per-row records (row i's
// metadata is rows[i]; nil entries are rows without metadata). It
// returns nil when no row carries any metadata, so the metadata-less
// store keeps its exact pre-metadata representation. A column takes the
// kind of its field's first value, so every row must agree with it —
// the registry guarantees that for writes, and opening a bundle rejects
// rows that do not (Registry.SeedRows).
func NewBlock(rows []Map) *Block {
	var cols map[string]*column
	for i, m := range rows {
		for field, v := range m {
			if cols == nil {
				cols = make(map[string]*column)
			}
			c, ok := cols[field]
			if !ok {
				c = newColumn(v.Kind, len(rows))
				cols[field] = c
			}
			c.set(i, v)
		}
	}
	if cols == nil {
		return nil
	}
	for _, c := range cols {
		c.codeOf = nil
	}
	return &Block{rows: len(rows), cols: cols}
}

func newColumn(kind Kind, rows int) *column {
	c := &column{kind: kind, present: make([]uint64, (rows+63)/64)}
	switch kind {
	case KindInt:
		c.ints = make([]int64, rows)
	case KindFloat:
		c.flts = make([]float64, rows)
	case KindString:
		c.codes = make([]uint32, rows)
		c.codeOf = make(map[string]uint32)
	case KindBool:
		c.bools = make([]uint64, (rows+63)/64)
	}
	return c
}

func (c *column) set(row int, v Value) {
	c.present[row>>6] |= 1 << (uint(row) & 63)
	switch c.kind {
	case KindInt:
		c.ints[row] = v.Int
	case KindFloat:
		c.flts[row] = v.Flt
	case KindString:
		code, ok := c.codeOf[v.Str]
		if !ok {
			code = uint32(len(c.dict))
			c.codeOf[v.Str] = code
			c.dict = append(c.dict, v.Str)
		}
		c.codes[row] = code
	case KindBool:
		if v.Bool {
			c.bools[row>>6] |= 1 << (uint(row) & 63)
		}
	}
}

func (c *column) has(row int) bool {
	return c.present[row>>6]>>(uint(row)&63)&1 != 0
}

func (c *column) value(row int) Value {
	switch c.kind {
	case KindInt:
		return IntValue(c.ints[row])
	case KindFloat:
		return FloatValue(c.flts[row])
	case KindString:
		return StringValue(c.dict[c.codes[row]])
	case KindBool:
		return BoolValue(c.bools[row>>6]>>(uint(row)&63)&1 != 0)
	}
	return Value{}
}

// Rows returns the block's row count (0 for a nil block).
func (b *Block) Rows() int {
	if b == nil {
		return 0
	}
	return b.rows
}

// Value returns the metadata value of one field at one row.
func (b *Block) Value(row int, field string) (Value, bool) {
	if b == nil {
		return Value{}, false
	}
	c, ok := b.cols[field]
	if !ok || !c.has(row) {
		return Value{}, false
	}
	return c.value(row), true
}

// Row materializes one row's record as a fresh Map (nil when the row
// has no metadata) — the gather/compact/persist path, not the scan path.
func (b *Block) Row(row int) Map {
	if b == nil {
		return nil
	}
	var m Map
	for field, c := range b.cols {
		if c.has(row) {
			if m == nil {
				m = make(Map)
			}
			m[field] = c.value(row)
		}
	}
	return m
}

// EvalBlock sets dst, a bitset of (rows+63)/64 words, to the rows of a
// base block that match p. blk may be nil (a base with no metadata);
// rows is the base row count. dst starts as every row, and each leaf
// then ANDs in its own match words, skipping the words an earlier leaf
// already emptied. Row i of dst equals p.Match(blk.Row(i)).
func (p *Predicate) EvalBlock(blk *Block, rows int, dst []uint64) {
	setAll(dst, rows)
	for i := range p.leaves {
		var c *column
		if blk != nil {
			c = blk.cols[p.leaves[i].field]
		}
		p.leaves[i].andColumn(c, dst)
	}
}

// andColumn ANDs the leaf's match words over column c into dst. A nil c
// is a field absent from every row of the block. Every leaf but exists
// matches only present rows, so each typed kernel works on
// dst & present.
func (l *leaf) andColumn(c *column, dst []uint64) {
	switch {
	case c == nil || (l.op != opExists && c.kind != l.kind):
		// Within a store a column has its field's registered kind, the
		// leaf's. A predicate compiled against another store's registry
		// can meet a column of another kind; it reads as absent rather
		// than indexing a nil array.
		if !l.match(Value{}, false) {
			clear(dst)
		}
	case l.op == opExists:
		for w := range dst {
			if l.want {
				dst[w] &= c.present[w]
			} else {
				dst[w] &^= c.present[w]
			}
		}
	case l.kind == KindInt:
		var set []int64
		for _, v := range l.set {
			set = append(set, v.Int)
		}
		andCompare(dst, c.present, c.ints, l.op, l.val.Int, set)
	case l.kind == KindFloat:
		var set []float64
		for _, v := range l.set {
			set = append(set, v.Flt)
		}
		andCompare(dst, c.present, c.flts, l.op, l.val.Flt, set)
	case l.kind == KindString:
		// One leaf.match per distinct value, then one lookup per row.
		table := make([]uint64, len(c.dict))
		for code, s := range c.dict {
			if l.match(StringValue(s), true) {
				table[code] = 1
			}
		}
		andLookup(dst, c.present, c.codes, table)
	case l.kind == KindBool:
		var hitTrue, hitFalse uint64
		if l.match(BoolValue(true), true) {
			hitTrue = ^uint64(0)
		}
		if l.match(BoolValue(false), true) {
			hitFalse = ^uint64(0)
		}
		for w := range dst {
			dst[w] &= c.present[w] & (c.bools[w]&hitTrue | ^c.bools[w]&hitFalse)
		}
	}
}

// andCompare ANDs into dst the present rows whose value x satisfies the
// leaf's comparison with v, or for in is a member of set. Every other
// operator is one of three comparisons or its negation, as leaf.match
// writes it (ne is !(x == v), le is !(v < x), ge is !(x < v)), so a NaN
// cell matches exactly as it does there.
func andCompare[T int64 | float64](dst, present []uint64, vals []T, o op, v T, set []T) {
	var neg uint64
	if o == opNe || o == opLe || o == opGe {
		neg = ^uint64(0)
	}
	for w := range dst {
		m := dst[w] & present[w]
		if m == 0 {
			dst[w] = 0
			continue
		}
		// Row 64w+j is bit j: walk the word's rows backwards, shifting
		// each result in at the bottom.
		xs := vals[w<<6 : min(w<<6+64, len(vals))]
		var hits uint64
		switch o {
		case opLt, opGe:
			for j := len(xs) - 1; j >= 0; j-- {
				hits = hits<<1 | b2u(xs[j] < v)
			}
		case opGt, opLe:
			for j := len(xs) - 1; j >= 0; j-- {
				hits = hits<<1 | b2u(v < xs[j])
			}
		case opEq, opNe:
			for j := len(xs) - 1; j >= 0; j-- {
				hits = hits<<1 | b2u(xs[j] == v)
			}
		case opIn:
			for j := len(xs) - 1; j >= 0; j-- {
				hits = hits<<1 | b2u(slices.Contains(set, xs[j]))
			}
		}
		dst[w] = m & (hits ^ neg)
	}
}

// andLookup ANDs into dst the present rows whose dictionary code maps to
// 1 in table.
func andLookup(dst, present []uint64, codes []uint32, table []uint64) {
	for w := range dst {
		m := dst[w] & present[w]
		if m == 0 {
			dst[w] = 0
			continue
		}
		cs := codes[w<<6 : min(w<<6+64, len(codes))]
		var hits uint64
		for j := len(cs) - 1; j >= 0; j-- {
			hits = hits<<1 | table[cs[j]]
		}
		dst[w] = m & hits
	}
}

func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// setAll sets bits [0, n) of the bitset.
func setAll(dst []uint64, n int) {
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		dst[len(dst)-1] = ^uint64(0) >> uint(64-rem)
	}
}
