// Block is the columnar metadata layout of both segments: one typed
// array per field plus a presence bitset. A base segment's block is
// built in bulk (NewBlock) when the segment is compacted or a bundle
// reopens, and is immutable afterwards, like the base vector block it
// sits beside. A delta segment's block grows one row per write through
// Append, a copy-on-write step that leaves every published version
// intact, so both segments evaluate a predicate with the same column
// kernels.
package meta

import (
	"maps"
	"slices"
)

// Column is one field's values across a block's rows: a presence bitset
// and a dense array of the field's kind. Absent rows hold the zero
// value and a clear presence bit. A block holds its columns by value;
// along an Append chain the typed arrays and the dictionary are views
// of shared backing, and the bitsets are each version's own words.
type column struct {
	kind    Kind
	present []uint64
	ints    []int64
	flts    []float64
	codes   []uint32 // KindString: each row's index into dict
	dict    []string // KindString: the distinct values, in first-seen order
	bools   []uint64 // value bitset for KindBool

	// codeOf inverts dict for the writer (NewBlock, Append); no reader
	// touches it. NewBlock drops it and Append rebuilds it, then shares
	// it along the chain, so it may know strings past a version's dict:
	// a code is trusted only where it resolves to the same string in the
	// version's own dict.
	codeOf map[string]uint32
}

// Block holds the columns of one segment. A nil *Block is the canonical
// "no metadata" block: every row reads as an empty Map.
type Block struct {
	rows int
	// index maps a field to its column. Versions share it until an
	// Append adds a field, which copies it.
	index map[string]int
	cols  []column
}

// NewBlock builds a columnar block from per-row records (row i's
// metadata is rows[i]; nil and empty entries are rows without
// metadata). It returns nil when no row carries any metadata, so the
// metadata-less store keeps its exact pre-metadata representation. A
// column takes the kind of its field's first value, so every row must
// agree with it — the registry guarantees that for writes, and opening
// a bundle rejects rows that do not (Registry.SeedRows).
func NewBlock(rows []Map) *Block {
	var b *Block
	for i, m := range rows {
		for field, v := range m {
			if b == nil {
				b = &Block{rows: len(rows), index: make(map[string]int)}
			}
			j, ok := b.index[field]
			if !ok {
				j = len(b.cols)
				b.index[field] = j
				b.cols = append(b.cols, newColumn(v.Kind, len(rows)))
			}
			b.cols[j].set(i, v)
		}
	}
	if b != nil {
		for j := range b.cols {
			b.cols[j].codeOf = nil
		}
	}
	return b
}

func newColumn(kind Kind, rows int) column {
	c := column{kind: kind, present: make([]uint64, (rows+63)/64)}
	switch kind {
	case KindInt:
		c.ints = make([]int64, rows)
	case KindFloat:
		c.flts = make([]float64, rows)
	case KindString:
		c.codes = make([]uint32, rows)
	case KindBool:
		c.bools = make([]uint64, (rows+63)/64)
	}
	return c
}

// Append returns a new version of b with md as row at, after b's rows
// and the metadata-less rows between; at must be at least b.Rows(). A
// nil b stands for at metadata-less rows and stays nil while md is
// empty, so a segment that never writes metadata keeps no block. b and
// every version before it stay valid for concurrent readers: the typed
// arrays and the dictionary grow in backing shared along the chain,
// past every published version's rows, and the new version's bitsets
// are fresh copies, so no word a published version reads is written.
// Appends must be serialized and made to the newest version only. Each
// costs three allocations (the version, its columns and one buffer for
// every copied bitset word) and O(fields · rows/64) copied words, so a
// block of many rows is built with NewBlock instead.
func (b *Block) Append(at int, md Map) *Block {
	if b == nil {
		if len(md) == 0 {
			return nil
		}
		b = &Block{}
	}
	if at < b.rows {
		panic("meta: Append below the block's last row")
	}
	// One pass over md pairs each value with its column; a field the
	// block lacks copies the index once and takes the next column.
	var stack [8]cell
	cells, index := stack[:0], b.index
	for field, v := range md {
		j, ok := index[field]
		if !ok {
			if len(index) == len(b.cols) {
				index = make(map[string]int, len(b.cols)+1)
				maps.Copy(index, b.index)
			}
			j = len(index)
			index[field] = j
		}
		cells = append(cells, cell{j, v})
	}
	cols := make([]column, len(index))
	copy(cols, b.cols)
	for _, c := range cells {
		if c.j >= len(b.cols) {
			cols[c.j].kind = c.v.Kind
		}
	}
	rows, words, bitsets := at+1, (at+64)/64, len(cols)
	for j := range cols {
		if cols[j].kind == KindBool {
			bitsets++
		}
	}
	buf := make([]uint64, bitsets*words)
	for j := range cols {
		c := &cols[j]
		c.present, buf = copyWords(buf, c.present, words)
		switch c.kind {
		case KindInt:
			c.ints = extend(c.ints, rows)
		case KindFloat:
			c.flts = extend(c.flts, rows)
		case KindString:
			c.codes = extend(c.codes, rows)
		case KindBool:
			c.bools, buf = copyWords(buf, c.bools, words)
		}
	}
	for _, c := range cells {
		cols[c.j].set(at, c.v)
	}
	return &Block{rows: rows, index: index, cols: cols}
}

// cell is one value of an appended row and its column's slot.
type cell struct {
	j int
	v Value
}

// copyWords copies src into the first words words of buf, zero past
// src, and returns that copy and the rest of buf.
func copyWords(buf, src []uint64, words int) ([]uint64, []uint64) {
	copy(buf[:words], src)
	return buf[:words:words], buf[words:]
}

// extend returns s grown to n elements, the new ones zero. It writes
// only past len(s), where no version Append already returned reads.
func extend[E any](s []E, n int) []E {
	l := len(s)
	s = slices.Grow(s, n-l)[:n]
	clear(s[l:])
	return s
}

func (c *column) set(row int, v Value) {
	c.present[row>>6] |= 1 << (uint(row) & 63)
	switch c.kind {
	case KindInt:
		c.ints[row] = v.Int
	case KindFloat:
		c.flts[row] = v.Flt
	case KindString:
		c.codes[row] = c.code(v.Str)
	case KindBool:
		if v.Bool {
			c.bools[row>>6] |= 1 << (uint(row) & 63)
		}
	}
}

// code returns s's index in the column's dictionary, appending s when
// the dictionary does not hold it.
func (c *column) code(s string) uint32 {
	if c.codeOf == nil {
		c.codeOf = make(map[string]uint32, len(c.dict)+1)
		for code, d := range c.dict {
			c.codeOf[d] = uint32(code)
		}
	}
	if code, ok := c.codeOf[s]; ok && int(code) < len(c.dict) && c.dict[code] == s {
		return code
	}
	code := uint32(len(c.dict))
	c.codeOf[s] = code
	c.dict = append(c.dict, s)
	return code
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

// Row materializes one row's record as a fresh Map (nil when the row
// has no metadata) — the gather/compact/persist path, not the scan path.
func (b *Block) Row(row int) Map {
	if b == nil {
		return nil
	}
	var m Map
	for field, j := range b.index {
		if c := &b.cols[j]; c.has(row) {
			if m == nil {
				m = make(Map)
			}
			m[field] = c.value(row)
		}
	}
	return m
}

// Records materializes rows [lo, hi) as fresh Maps, or returns nil for
// a nil block — the persist shape of a segment's metadata.
func (b *Block) Records(lo, hi int) []Map {
	if b == nil {
		return nil
	}
	out := make([]Map, hi-lo)
	for i := range out {
		out[i] = b.Row(lo + i)
	}
	return out
}

// EvalBlock sets dst, a bitset of (rows+63)/64 words, to the rows of a
// segment's block that match p. blk may be nil (a segment with no
// metadata); rows is the segment's row count. dst starts as every row,
// and each leaf then ANDs in its own match words, skipping the words an
// earlier leaf already emptied. Row i of dst equals p.Match(blk.Row(i)).
func (p *Predicate) EvalBlock(blk *Block, rows int, dst []uint64) {
	setAll(dst, rows)
	for i := range p.leaves {
		var c *column
		if blk != nil {
			if j, ok := blk.index[p.leaves[i].field]; ok {
				c = &blk.cols[j]
			}
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
