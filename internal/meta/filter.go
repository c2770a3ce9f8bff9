// The predicate language: a JSON tree of comparisons compiled, against
// the field-type registry, into a flat conjunction of typed leaves.
//
// Grammar (every node is a JSON object):
//
//	{"and": [node, node, ...]}                  conjunction (nestable)
//	{"field": "tenant", "eq": "acme"}           eq | ne | lt | le | gt | ge
//	{"field": "shard",  "in": [1, 2, 3]}        membership
//	{"field": "ts",     "exists": true}         presence test
//
// A leaf names exactly one field and exactly one operator. Comparisons
// are typed at compile time: the operand must convert to the field's
// registered kind, ordered operators need an orderable kind (int, float,
// string), and a field the registry has never seen is rejected — the
// serving layer turns every compile error into a 400 with this package's
// message. Absent fields compare as no-match for every operator except
// exists:false, which is the soft-delete / not-yet-tagged idiom.
package meta

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Compile limits: a filter tree deeper or wider than any sane client
// would send is rejected instead of walked, so adversarial input cannot
// turn the compiler into a stack or CPU sink (see FuzzPredicate).
const (
	maxFilterDepth  = 32
	maxFilterLeaves = 256
)

type op uint8

const (
	opEq op = iota
	opNe
	opLt
	opLe
	opGt
	opGe
	opIn
	opExists
)

var opNames = map[string]op{
	"eq": opEq, "ne": opNe, "lt": opLt, "le": opLe,
	"gt": opGt, "ge": opGe, "in": opIn, "exists": opExists,
}

// leaf is one compiled comparison.
type leaf struct {
	field string
	kind  Kind
	op    op
	val   Value   // eq/ne/lt/le/gt/ge operand
	set   []Value // in operand
	want  bool    // exists operand
}

// Predicate is a compiled conjunction, ready to evaluate against rows.
// A nil *Predicate means "no filter" everywhere in the read path.
type Predicate struct {
	leaves []leaf
	fields []string // unique referenced fields, first-mention order
}

// CompileFilter parses and type-checks a JSON filter tree against the
// given field→kind table. A null or empty filter compiles to nil (no
// predicate). Every error is a client error phrased for an API response.
func CompileFilter(raw []byte, kinds map[string]Kind) (*Predicate, error) {
	if len(raw) == 0 || bytes.Equal(bytes.TrimSpace(raw), []byte("null")) {
		return nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var node any
	if err := dec.Decode(&node); err != nil {
		return nil, fmt.Errorf("filter: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("filter: trailing data after filter")
	}
	p := &Predicate{}
	if err := p.compileNode(node, kinds, 0); err != nil {
		return nil, err
	}
	if len(p.leaves) == 0 {
		return nil, fmt.Errorf("filter: empty conjunction")
	}
	return p, nil
}

func (p *Predicate) compileNode(node any, kinds map[string]Kind, depth int) error {
	if depth > maxFilterDepth {
		return fmt.Errorf("filter: tree deeper than %d levels", maxFilterDepth)
	}
	obj, ok := node.(map[string]any)
	if !ok {
		return fmt.Errorf("filter: node must be a JSON object")
	}
	if sub, ok := obj["and"]; ok {
		if len(obj) != 1 {
			return fmt.Errorf(`filter: "and" node must have no other keys`)
		}
		arr, ok := sub.([]any)
		if !ok {
			return fmt.Errorf(`filter: "and" wants an array of nodes`)
		}
		for _, child := range arr {
			if err := p.compileNode(child, kinds, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return p.compileLeaf(obj, kinds)
}

func (p *Predicate) compileLeaf(obj map[string]any, kinds map[string]Kind) error {
	if len(p.leaves) >= maxFilterLeaves {
		return fmt.Errorf("filter: more than %d comparisons", maxFilterLeaves)
	}
	rawField, ok := obj["field"]
	if !ok {
		return fmt.Errorf(`filter: comparison node missing "field"`)
	}
	field, ok := rawField.(string)
	if !ok || field == "" {
		return fmt.Errorf(`filter: "field" must be a non-empty string`)
	}
	if len(obj) != 2 {
		return fmt.Errorf("filter: field %q must pair with exactly one operator (eq, ne, lt, le, gt, ge, in, exists)", field)
	}
	var (
		theOp   op
		operand any
		found   bool
	)
	for key, v := range obj {
		if key == "field" {
			continue
		}
		o, ok := opNames[key]
		if !ok {
			return fmt.Errorf("filter: unknown operator %q on field %q", key, field)
		}
		theOp, operand, found = o, v, true
	}
	if !found {
		return fmt.Errorf("filter: field %q has no operator", field)
	}
	kind, known := kinds[field]
	if !known {
		return fmt.Errorf("filter: unknown metadata field %q (fields are registered by the first object written with them)", field)
	}
	l := leaf{field: field, kind: kind, op: theOp}
	switch theOp {
	case opExists:
		b, ok := operand.(bool)
		if !ok {
			return fmt.Errorf("filter: exists on field %q wants true or false", field)
		}
		l.want = b
	case opIn:
		arr, ok := operand.([]any)
		if !ok {
			return fmt.Errorf("filter: in on field %q wants an array", field)
		}
		if len(arr) > maxFilterLeaves {
			return fmt.Errorf("filter: in on field %q lists more than %d values", field, maxFilterLeaves)
		}
		l.set = make([]Value, 0, len(arr))
		for _, e := range arr {
			v, err := operandValue(field, kind, e)
			if err != nil {
				return err
			}
			l.set = append(l.set, v)
		}
	case opLt, opLe, opGt, opGe:
		if kind == KindBool {
			return fmt.Errorf("filter: field %q holds bool values, which are not ordered", field)
		}
		v, err := operandValue(field, kind, operand)
		if err != nil {
			return err
		}
		l.val = v
	default: // eq, ne
		v, err := operandValue(field, kind, operand)
		if err != nil {
			return err
		}
		l.val = v
	}
	p.leaves = append(p.leaves, l)
	p.noteField(field)
	return nil
}

func (p *Predicate) noteField(field string) {
	for _, f := range p.fields {
		if f == field {
			return
		}
	}
	p.fields = append(p.fields, field)
}

// operandValue converts a decoded JSON operand to the field's kind. An
// integral number literal converts to either numeric kind; a fractional
// one only to float — {"field":"ts","ge":17.5} on an int field is a
// client mistake worth naming, not truncating.
func operandValue(field string, kind Kind, operand any) (Value, error) {
	v, err := scalarValue(operand)
	if err != nil {
		return Value{}, fmt.Errorf("filter: field %q: %v", field, err)
	}
	if v.Kind == KindInt && kind == KindFloat {
		v = FloatValue(float64(v.Int))
	}
	if v.Kind != kind {
		e := &TypeError{Field: field, Want: kind, Got: v.Kind}
		return Value{}, fmt.Errorf("filter: %v", e)
	}
	return v, nil
}

// Fields returns the referenced field names in first-mention order.
func (p *Predicate) Fields() []string {
	if p == nil {
		return nil
	}
	return p.fields
}

// Match evaluates the conjunction against one row. A nil predicate
// matches everything; a nil map is a row with no metadata.
func (p *Predicate) Match(m Map) bool {
	if p == nil {
		return true
	}
	for i := range p.leaves {
		l := &p.leaves[i]
		v, present := m[l.field]
		if !l.match(v, present) {
			return false
		}
	}
	return true
}

// match evaluates one leaf against one field value.
func (l *leaf) match(v Value, present bool) bool {
	if l.op == opExists {
		return present == l.want
	}
	if !present {
		return false
	}
	switch l.op {
	case opEq:
		return v.Equal(l.val)
	case opNe:
		return !v.Equal(l.val)
	case opLt:
		return v.Less(l.val)
	case opLe:
		return !l.val.Less(v)
	case opGt:
		return l.val.Less(v)
	case opGe:
		return !v.Less(l.val)
	case opIn:
		for _, s := range l.set {
			if v.Equal(s) {
				return true
			}
		}
		return false
	}
	return false
}
