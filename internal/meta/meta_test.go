package meta

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestParseMapJSONTypes(t *testing.T) {
	m, err := ParseMapJSON([]byte(`{"tenant":"acme","ts":1700000000,"score":0.5,"hot":true}`))
	if err != nil {
		t.Fatal(err)
	}
	want := Map{
		"tenant": StringValue("acme"),
		"ts":     IntValue(1700000000),
		"score":  FloatValue(0.5),
		"hot":    BoolValue(true),
	}
	if len(m) != len(want) {
		t.Fatalf("got %d fields, want %d", len(m), len(want))
	}
	for f, v := range want {
		if got := m[f]; !got.Equal(v) {
			t.Errorf("field %q = %+v, want %+v", f, got, v)
		}
	}
	// Exponent and fraction syntax force float even for integral values.
	m, err = ParseMapJSON([]byte(`{"a":1e3,"b":2.0}`))
	if err != nil {
		t.Fatal(err)
	}
	if m["a"].Kind != KindFloat || m["b"].Kind != KindFloat {
		t.Fatalf("1e3 and 2.0 should parse as floats, got %v %v", m["a"].Kind, m["b"].Kind)
	}
}

func TestParseMapJSONRejects(t *testing.T) {
	for _, bad := range []string{
		`{"a":null}`,
		`{"a":[1,2]}`,
		`{"a":{"b":1}}`,
		`{"":1}`,
		`[1,2]`,
		`{"a":1}trailing`,
		`{"a":99999999999999999999999999}`,
	} {
		if _, err := ParseMapJSON([]byte(bad)); err == nil {
			t.Errorf("ParseMapJSON(%s) accepted, want error", bad)
		}
	}
	for _, empty := range []string{"", "null", "{}"} {
		m, err := ParseMapJSON([]byte(empty))
		if err != nil || m != nil {
			t.Errorf("ParseMapJSON(%q) = %v, %v; want nil, nil", empty, m, err)
		}
	}
}

func TestRegistryFixedAtFirstWrite(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Map{"ts": IntValue(1), "tenant": StringValue("a")}); err != nil {
		t.Fatal(err)
	}
	v0 := r.Version()
	// Same kinds: fine, no version bump.
	if err := r.Register(Map{"ts": IntValue(2)}); err != nil {
		t.Fatal(err)
	}
	if r.Version() != v0 {
		t.Fatalf("re-registering an existing kind bumped the version")
	}
	// Kind conflict: typed rejection, registry unchanged.
	err := r.Register(Map{"ts": StringValue("nope"), "fresh": BoolValue(true)})
	if err == nil {
		t.Fatal("conflicting kind accepted")
	}
	if !strings.Contains(err.Error(), `"ts"`) || !strings.Contains(err.Error(), "int") {
		t.Fatalf("conflict error %q should name the field and its kind", err)
	}
	if _, ok := r.Kind("fresh"); ok {
		t.Fatal("a rejected write must not register its other fields")
	}
	if k, _ := r.Kind("ts"); k != KindInt {
		t.Fatalf("ts kind = %v after rejected write, want int", k)
	}
}

func TestRegistrySeed(t *testing.T) {
	r := NewRegistry()
	r.Seed(map[string]Kind{"a": KindInt})
	err := r.SeedRows([]Map{nil, {"b": StringValue("x")}, {"a": StringValue("conflict-loses")}})
	var te *TypeError
	if !errors.As(err, &te) || te.Field != "a" || te.Want != KindInt || te.Got != KindString {
		t.Fatalf("SeedRows on a conflicting row = %v, want a *TypeError for a", err)
	}
	if err := r.SeedRows([]Map{{"c": {}}}); err == nil {
		t.Fatal("SeedRows accepted a value of invalid kind")
	}
	if k, _ := r.Kind("a"); k != KindInt {
		t.Fatalf("seeded kind overwritten: a = %v", k)
	}
	if k, _ := r.Kind("b"); k != KindString {
		t.Fatalf("row-seeded kind b = %v, want string", k)
	}
}

func kinds() map[string]Kind {
	return map[string]Kind{
		"tenant": KindString,
		"ts":     KindInt,
		"score":  KindFloat,
		"hot":    KindBool,
	}
}

func TestCompileFilterErrors(t *testing.T) {
	cases := []struct {
		raw  string
		want string // substring of the error
	}{
		{`{"field":"nope","eq":1}`, `unknown metadata field "nope"`},
		{`{"field":"ts","eq":"acme"}`, `holds int values, got string`},
		{`{"field":"ts","ge":17.5}`, `holds int values, got float`},
		{`{"field":"hot","lt":true}`, "not ordered"},
		{`{"field":"tenant"}`, "exactly one operator"},
		{`{"field":"tenant","eq":"a","ne":"b"}`, "exactly one operator"},
		{`{"field":"tenant","like":"a%"}`, `unknown operator "like"`},
		{`{"and":[{"field":"ts","eq":1}],"field":"ts"}`, "no other keys"},
		{`{"and":{}}`, "wants an array"},
		{`{"and":[]}`, "empty conjunction"},
		{`{"field":"ts","in":5}`, "wants an array"},
		{`{"field":"ts","exists":1}`, "wants true or false"},
		{`{"field":"ts","eq":null}`, "null is not a metadata value"},
		{`"just a string"`, "must be a JSON object"},
		{`{"field":"ts","eq":1}trailing`, "trailing data"},
	}
	for _, c := range cases {
		_, err := CompileFilter([]byte(c.raw), kinds())
		if err == nil {
			t.Errorf("CompileFilter(%s) accepted, want error containing %q", c.raw, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("CompileFilter(%s) error %q, want substring %q", c.raw, err, c.want)
		}
	}
	// nil / null filters compile to no predicate.
	for _, empty := range []string{"", "null", "  null  "} {
		p, err := CompileFilter([]byte(empty), kinds())
		if p != nil || err != nil {
			t.Errorf("CompileFilter(%q) = %v, %v; want nil, nil", empty, p, err)
		}
	}
}

func TestCompileFilterDepthBound(t *testing.T) {
	deep := `{"field":"ts","eq":1}`
	for i := 0; i < maxFilterDepth+2; i++ {
		deep = `{"and":[` + deep + `]}`
	}
	if _, err := CompileFilter([]byte(deep), kinds()); err == nil {
		t.Fatal("over-deep filter accepted")
	}
}

func TestPredicateMatch(t *testing.T) {
	row := Map{
		"tenant": StringValue("acme"),
		"ts":     IntValue(100),
		"score":  FloatValue(0.5),
		"hot":    BoolValue(true),
	}
	cases := []struct {
		raw  string
		m    Map
		want bool
	}{
		{`{"field":"tenant","eq":"acme"}`, row, true},
		{`{"field":"tenant","eq":"evil"}`, row, false},
		{`{"field":"tenant","ne":"evil"}`, row, true},
		{`{"field":"ts","ge":100}`, row, true},
		{`{"field":"ts","gt":100}`, row, false},
		{`{"field":"ts","le":100}`, row, true},
		{`{"field":"ts","lt":100}`, row, false},
		{`{"field":"score","ge":0.5}`, row, true},
		{`{"field":"score","gt":1}`, row, false},
		{`{"field":"ts","in":[1,100,7]}`, row, true},
		{`{"field":"ts","in":[]}`, row, false},
		{`{"field":"hot","eq":true}`, row, true},
		{`{"field":"hot","exists":true}`, row, true},
		{`{"field":"hot","exists":false}`, row, false},
		{`{"and":[{"field":"tenant","eq":"acme"},{"field":"ts","ge":100}]}`, row, true},
		{`{"and":[{"field":"tenant","eq":"acme"},{"field":"ts","gt":100}]}`, row, false},
		// Absent fields: every comparison is no-match except exists:false.
		{`{"field":"tenant","eq":"acme"}`, nil, false},
		{`{"field":"tenant","ne":"acme"}`, nil, false},
		{`{"field":"ts","lt":100}`, nil, false},
		{`{"field":"ts","exists":false}`, nil, true},
		{`{"field":"ts","exists":true}`, nil, false},
	}
	for _, c := range cases {
		p, err := CompileFilter([]byte(c.raw), kinds())
		if err != nil {
			t.Fatalf("CompileFilter(%s): %v", c.raw, err)
		}
		if got := p.Match(c.m); got != c.want {
			t.Errorf("Match(%s) on %v = %v, want %v", c.raw, c.m, got, c.want)
		}
	}
}

// blockRows builds a deterministic rowset: tenant cycles a..e, ts counts
// up, every third row has no metadata at all.
func blockRows(n int) []Map {
	rows := make([]Map, n)
	for i := range rows {
		if i%3 == 2 {
			continue
		}
		rows[i] = Map{
			"tenant": StringValue(string(rune('a' + i%5))),
			"ts":     IntValue(int64(i)),
			"hot":    BoolValue(i%2 == 0),
		}
	}
	return rows
}

// evalBits runs EvalBlock and returns the matched rows.
func evalBits(t *testing.T, p *Predicate, blk *Block, rows int) []int {
	t.Helper()
	dst := make([]uint64, (rows+63)/64)
	p.EvalBlock(blk, rows, dst)
	var out []int
	for i := 0; i < rows; i++ {
		if dst[i>>6]>>(uint(i)&63)&1 != 0 {
			out = append(out, i)
		}
	}
	return out
}

// TestEvalBlockPlansAgree checks the column kernels against the
// row-at-a-time evaluator on fixed filters: selective equalities, an
// equality conjunction, a presence test and a membership set.
func TestEvalBlockPlansAgree(t *testing.T) {
	const n = 333
	rows := blockRows(n)
	blk := NewBlock(rows)
	if blk.Rows() != n {
		t.Fatalf("block rows = %d, want %d", blk.Rows(), n)
	}
	filters := []string{
		`{"field":"tenant","eq":"c"}`,
		`{"and":[{"field":"tenant","eq":"c"},{"field":"ts","ge":100}]}`,
		`{"and":[{"field":"hot","eq":true},{"field":"tenant","eq":"a"}]}`,
		`{"field":"ts","exists":false}`,
		`{"field":"ts","in":[3,4,5,6]}`,
	}
	for _, raw := range filters {
		p, err := CompileFilter([]byte(raw), kinds())
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for i, m := range rows {
			if p.Match(m) {
				want = append(want, i)
			}
		}
		if got := evalBits(t, p, blk, n); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("filter %s: EvalBlock %v, Match %v", raw, got, want)
		}
	}
}

func TestEvalBlockNilBlock(t *testing.T) {
	p, _ := CompileFilter([]byte(`{"field":"ts","exists":false}`), kinds())
	if matched := evalBits(t, p, nil, 130); len(matched) != 130 {
		t.Fatalf("exists:false over a metadata-less base matched %d of 130", len(matched))
	}
	p, _ = CompileFilter([]byte(`{"field":"ts","eq":1}`), kinds())
	if matched := evalBits(t, p, nil, 130); len(matched) != 0 {
		t.Fatalf("eq over a metadata-less base matched %d rows, want 0", len(matched))
	}
	// A predicate compiled against another store's kinds reads a column
	// of another kind as absent instead of indexing a nil array.
	p, _ = CompileFilter([]byte(`{"field":"ts","lt":1e9}`), map[string]Kind{"ts": KindFloat})
	if matched := evalBits(t, p, NewBlock(blockRows(130)), 130); len(matched) != 0 {
		t.Fatalf("a float leaf over an int column matched %d rows, want 0", len(matched))
	}
}

func TestEvalBlockRandomizedAgainstMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		rows := make([]Map, n)
		for i := range rows {
			if rng.Intn(4) == 0 {
				continue
			}
			rows[i] = Map{
				"tenant": StringValue(string(rune('a' + rng.Intn(3)))),
				"ts":     IntValue(int64(rng.Intn(50))),
			}
		}
		blk := NewBlock(rows)
		raw := fmt.Sprintf(`{"and":[{"field":"tenant","eq":"%c"},{"field":"ts","lt":%d}]}`,
			'a'+rune(rng.Intn(3)), rng.Intn(60))
		p, err := CompileFilter([]byte(raw), kinds())
		if err != nil {
			t.Fatal(err)
		}
		got := evalBits(t, p, blk, n)
		j := 0
		for i, m := range rows {
			if p.Match(m) {
				if j >= len(got) || got[j] != i {
					t.Fatalf("trial %d: row %d missing from %v", trial, i, got)
				}
				j++
			}
		}
		if j != len(got) {
			t.Fatalf("trial %d: %d extra matches", trial, len(got)-j)
		}
	}
}

// choices yields the random decisions of genCase: next(n) is in [0, n).
// The differential test draws them from a seeded rng, FuzzEvalBlock
// from the fuzzer's bytes.
type choices func(n int) int

// The value pools hold the cells that stress the kernels: NaN, both
// zeros and both infinities, the int64 extremes, and the empty string.
var (
	genInts   = []int64{0, 1, -1, 7, math.MinInt64, math.MaxInt64}
	genFloats = []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 0.5, -2.25}
	genStrs   = []string{"", "a", "b", "ab", "B", "é"}
	genFields = []struct {
		name string
		kind Kind
	}{{"i", KindInt}, {"f", KindFloat}, {"s", KindString}, {"b", KindBool}, {"gone", KindInt}}
)

func genValue(kind Kind, next choices) Value {
	switch kind {
	case KindInt:
		return IntValue(genInts[next(len(genInts))])
	case KindFloat:
		return FloatValue(genFloats[next(len(genFloats))])
	case KindString:
		return StringValue(genStrs[next(len(genStrs))])
	}
	return BoolValue(next(2) == 1)
}

// genCase draws the rows of a block — nil rows, columns present in
// none, some or all rows, and sometimes a whole 64-row word without
// metadata, so a first leaf empties that word — and a conjunction of
// one to four leaves over them: every operator on every kind (ordered
// operators on bool, which do not compile, become eq), in sets of up to
// 256 values, and a field absent from every row ("gone").
func genCase(next choices) ([]Map, *Predicate) {
	rows := make([]Map, 1+next(300))
	var presence [4]int // in quarters of the non-nil rows; 0 is a column absent from the block
	for f := range presence {
		presence[f] = next(5)
	}
	blank := -1
	if next(2) == 0 {
		blank = next(len(rows)/64 + 1)
	}
	for i := range rows {
		if i>>6 == blank || next(10) == 0 {
			continue
		}
		m := Map{}
		for f, fd := range genFields[:len(presence)] {
			if next(4) < presence[f] {
				m[fd.name] = genValue(fd.kind, next)
			}
		}
		rows[i] = m
	}
	p := &Predicate{}
	for n := 1 + next(4); n > 0; n-- {
		fd := genFields[next(len(genFields))]
		l := leaf{field: fd.name, kind: fd.kind, op: op(next(int(opExists) + 1))}
		if fd.kind == KindBool && l.op >= opLt && l.op <= opGe {
			l.op = opEq
		}
		switch l.op {
		case opExists:
			l.want = next(2) == 1
		case opIn:
			for k := next(257); k > 0; k-- {
				l.set = append(l.set, genValue(fd.kind, next))
			}
		default:
			l.val = genValue(fd.kind, next)
		}
		p.leaves = append(p.leaves, l)
		p.noteField(fd.name)
	}
	return rows, p
}

// checkEvalBlock compares EvalBlock word for word with Predicate.Match
// on each row the block materializes, including the bits past the last
// row, which must stay clear.
func checkEvalBlock(t *testing.T, rows []Map, p *Predicate) {
	t.Helper()
	blk := NewBlock(rows)
	got := make([]uint64, (len(rows)+63)/64)
	for w := range got {
		got[w] = 0xdead_beef_dead_beef // EvalBlock must overwrite every word
	}
	p.EvalBlock(blk, len(rows), got)
	want := make([]uint64, len(got))
	for i := range rows {
		if p.Match(blk.Row(i)) {
			want[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("%d rows, leaves %+v: word %d is\n  %064b, Match says\n  %064b", len(rows), p.leaves, w, got[w], want[w])
		}
	}
}

// TestEvalBlockDifferential is the kernels' reference check: random
// blocks and conjunctions from genCase, every match word compared with
// the row-at-a-time evaluator, and every operator × kind drawn.
func TestEvalBlockDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	drawn := map[[2]int]bool{}
	for trial := 0; trial < 3000; trial++ {
		rows, p := genCase(rng.Intn)
		checkEvalBlock(t, rows, p)
		for _, l := range p.leaves {
			drawn[[2]int{int(l.kind), int(l.op)}] = true
		}
	}
	for _, fd := range genFields[:4] {
		for o := opEq; o <= opExists; o++ {
			if fd.kind == KindBool && o >= opLt && o <= opGe {
				continue
			}
			if !drawn[[2]int{int(fd.kind), int(o)}] {
				t.Errorf("no %s leaf with operator %d was drawn", fd.kind, o)
			}
		}
	}
}

// FuzzEvalBlock lets the mutator steer genCase: every two input bytes
// are one choice, and choices past the input's end are zero.
func FuzzEvalBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, p := genCase(func(n int) int {
			v := 0
			if len(data) >= 2 {
				v = int(data[0]) | int(data[1])<<8
				data = data[2:]
			}
			return v % n
		})
		checkEvalBlock(t, rows, p)
	})
}

// BenchmarkFilterEval times EvalBlock over a 5,000-row block shaped like
// one shard base of the served benchmark's mixed-write workload (16
// tenants, a uniform score, ts spread over 20,000 ids) against that
// workload's five filter predicates, in ns per row.
func BenchmarkFilterEval(b *testing.B) {
	const n = 5000
	rng := rand.New(rand.NewSource(1))
	rows := make([]Map, n)
	for i := range rows {
		rows[i] = Map{
			"tenant": StringValue(fmt.Sprintf("t%02d", rng.Intn(16))),
			"ts":     IntValue(int64(4 * i)),
			"score":  FloatValue(0.001 + 0.998*rng.Float64()),
		}
	}
	blk := NewBlock(rows)
	dst := make([]uint64, (n+63)/64)
	for _, c := range []struct{ name, raw string }{
		{"tenant-eq", `{"field":"tenant","eq":"t03"}`},
		{"tenant-eq-score-lt", `{"and":[{"field":"tenant","eq":"t07"},{"field":"score","lt":0.16}]}`},
		{"score-lt", `{"field":"score","lt":0.1}`},
		{"score-ge", `{"field":"score","ge":0.5}`},
		{"ts-ge", `{"field":"ts","ge":18000}`},
	} {
		p, err := CompileFilter([]byte(c.raw), map[string]Kind{"tenant": KindString, "ts": KindInt, "score": KindFloat})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				p.EvalBlock(blk, n, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}

func TestBlockRowRoundTrip(t *testing.T) {
	rows := blockRows(97)
	blk := NewBlock(rows)
	for i, want := range rows {
		got := blk.Row(i)
		if len(got) != len(want) {
			t.Fatalf("row %d: %d fields, want %d", i, len(got), len(want))
		}
		for f, v := range want {
			if gv, ok := got[f]; !ok || !gv.Equal(v) {
				t.Fatalf("row %d field %q = %+v, want %+v", i, f, gv, v)
			}
		}
	}
	if NewBlock([]Map{nil, nil, {}}) != nil {
		t.Fatal("a rowset with no metadata should build a nil block")
	}
}

// TestTrackerPlanner checks the tracker: the per-field matched/scanned
// sums behind the selectivity gauges, and the plan counters that stay
// zero until the benchmark stops reading them.
func TestTrackerPlanner(t *testing.T) {
	tr := NewTracker()
	p, err := CompileFilter([]byte(`{"and":[{"field":"tenant","eq":"acme"},{"field":"ts","ge":5}]}`), kinds())
	if err != nil {
		t.Fatal(err)
	}
	tr.Observe(p.Fields(), 10, 10000)
	tr.Observe(p.Fields(), 30, 10000)
	tr.Observe([]string{"ts"}, 5, 0) // nothing scanned: not an observation
	snap := tr.Snapshot()
	for _, f := range []string{"tenant", "ts"} {
		fs := snap.Fields[f]
		if fs.Matched != 40 || fs.Scanned != 20000 || fs.Selectivity() != 0.002 {
			t.Fatalf("field %q observations = %+v, want 40 of 20000", f, fs)
		}
	}
	if snap.PlanInline != 0 || snap.PlanBitmap != 0 {
		t.Fatalf("plan counters = %d/%d, want 0/0", snap.PlanInline, snap.PlanBitmap)
	}
}
