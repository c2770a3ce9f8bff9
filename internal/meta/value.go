// Package meta implements typed per-object metadata and the predicate
// language of filtered search: a Value is one scalar of a fixed kind
// (int64, float64, string, bool), a Map is one object's field→Value
// record, a Registry pins each field to the kind of its first write, and
// a Predicate is a compiled conjunction of comparisons evaluated below
// the top-p truncation of the filter scan (see DESIGN.md §12).
//
// The package is storage-shape aware but storage-agnostic: the columnar
// Block (block.go) holds a segment's metadata as per-field typed arrays
// with presence bitsets, built in bulk for a base segment and grown one
// row per write by a copy-on-write Append for a delta segment.
// retrieval.Segmented owns one Block per segment; this package only
// builds and evaluates them.
package meta

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the type of a metadata value. A field's kind is fixed by its
// first write (see Registry); the zero Kind marks an invalid Value.
type Kind uint8

const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	}
	return "invalid"
}

// Value is one typed metadata scalar. Exactly the payload field matching
// Kind is meaningful; the struct is flat (no interface) so it gob-encodes
// without type registration and compares without allocation.
type Value struct {
	Kind Kind
	Int  int64
	Flt  float64
	Str  string
	Bool bool
}

// IntValue, FloatValue, StringValue and BoolValue construct typed values.
func IntValue(v int64) Value     { return Value{Kind: KindInt, Int: v} }
func FloatValue(v float64) Value { return Value{Kind: KindFloat, Flt: v} }
func StringValue(v string) Value { return Value{Kind: KindString, Str: v} }
func BoolValue(v bool) Value     { return Value{Kind: KindBool, Bool: v} }

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInt:
		return v.Int == o.Int
	case KindFloat:
		return v.Flt == o.Flt
	case KindString:
		return v.Str == o.Str
	case KindBool:
		return v.Bool == o.Bool
	}
	return false
}

// Less orders two values of the same orderable kind (int, float,
// string). Callers must not pass mismatched or bool kinds; the compiler
// rejects ordered comparisons on bool fields before evaluation.
func (v Value) Less(o Value) bool {
	switch v.Kind {
	case KindInt:
		return v.Int < o.Int
	case KindFloat:
		return v.Flt < o.Flt
	case KindString:
		return v.Str < o.Str
	}
	return false
}

// Any returns the value as a plain Go value, for JSON rendering.
func (v Value) Any() any {
	switch v.Kind {
	case KindInt:
		return v.Int
	case KindFloat:
		return v.Flt
	case KindString:
		return v.Str
	case KindBool:
		return v.Bool
	}
	return nil
}

// Map is one object's metadata record. A nil Map is a valid empty
// record; readers must not mutate a Map obtained from a store.
type Map map[string]Value

// ParseMapJSON parses a JSON object of field→scalar into a Map. Number
// literals without a fraction or exponent become ints, all others
// floats, so {"ts": 1700000000} pins ts to int and {"score": 0.5} pins
// score to float. null and absent input parse as an empty record;
// nested objects, arrays, and null field values are rejected.
func ParseMapJSON(raw []byte) (Map, error) {
	if len(raw) == 0 || bytes.Equal(bytes.TrimSpace(raw), []byte("null")) {
		return nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var obj map[string]any
	if err := dec.Decode(&obj); err != nil {
		return nil, fmt.Errorf("metadata: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("metadata: trailing data after object")
	}
	if len(obj) == 0 {
		return nil, nil
	}
	out := make(Map, len(obj))
	for field, v := range obj {
		if field == "" {
			return nil, fmt.Errorf("metadata: empty field name")
		}
		val, err := scalarValue(v)
		if err != nil {
			return nil, fmt.Errorf("metadata field %q: %v", field, err)
		}
		out[field] = val
	}
	return out, nil
}

// scalarValue converts one decoded JSON value (with UseNumber) to a
// typed Value.
func scalarValue(v any) (Value, error) {
	switch x := v.(type) {
	case json.Number:
		return numberValue(x)
	case string:
		return StringValue(x), nil
	case bool:
		return BoolValue(x), nil
	case nil:
		return Value{}, fmt.Errorf("null is not a metadata value")
	}
	return Value{}, fmt.Errorf("values must be int, float, string, or bool")
}

// numberValue types a JSON number literal: integral syntax means int.
func numberValue(n json.Number) (Value, error) {
	s := n.String()
	if !strings.ContainsAny(s, ".eE") {
		i, err := n.Int64()
		if err != nil {
			return Value{}, fmt.Errorf("integer %s out of int64 range", s)
		}
		return IntValue(i), nil
	}
	f, err := n.Float64()
	if err != nil {
		return Value{}, fmt.Errorf("invalid number %s", s)
	}
	return FloatValue(f), nil
}

// TypeError is the rejection for a write or comparison whose value kind
// contradicts a field's registered kind. It is a client error: the
// serving layer answers it with a 400, never a 500.
type TypeError struct {
	Field string
	Want  Kind
	Got   Kind
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("metadata field %q holds %s values, got %s", e.Field, e.Want, e.Got)
}

// Registry is the per-store field→kind table: a field's kind is fixed by
// the first write that mentions it and every later write (and every
// filter comparison) must agree. Reads are one atomic load of an
// immutable snapshot, so the search path never contends with writers;
// Register copies on growth under a mutex, like every other
// copy-on-write structure in the store.
type Registry struct {
	mu    sync.Mutex
	kinds atomic.Pointer[map[string]Kind]
	ver   atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	empty := map[string]Kind{}
	r.kinds.Store(&empty)
	return r
}

// Kinds returns the current field→kind snapshot. The map is immutable
// and shared; callers must not modify it.
func (r *Registry) Kinds() map[string]Kind { return *r.kinds.Load() }

// Version counts registry growth events. Persistence uses it to decide
// when the manifest's serialized kind table is stale.
func (r *Registry) Version() uint64 { return r.ver.Load() }

// Register validates md against the registry and registers every
// first-seen field. On a kind conflict it returns a *TypeError and
// registers nothing (a rejected write must not grow the table).
func (r *Registry) Register(md Map) error {
	if len(md) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.kinds.Load()
	var grown map[string]Kind
	for field, v := range md {
		if field == "" {
			return fmt.Errorf("metadata: empty field name")
		}
		if v.Kind < KindInt || v.Kind > KindBool {
			return fmt.Errorf("metadata field %q: invalid value kind", field)
		}
		if k, ok := cur[field]; ok {
			if k != v.Kind {
				return &TypeError{Field: field, Want: k, Got: v.Kind}
			}
			continue
		}
		if grown == nil {
			grown = make(map[string]Kind, len(cur)+len(md))
			for f, k := range cur {
				grown[f] = k
			}
		}
		grown[field] = v.Kind
	}
	if grown != nil {
		r.kinds.Store(&grown)
		r.ver.Add(1)
	}
	return nil
}

// Seed registers previously persisted kinds wholesale, used when a
// bundle reopens. A field already registered keeps its kind; the open
// path seeds a fresh registry from the manifest, then checks every
// replayed row against it (SeedRows).
func (r *Registry) Seed(kinds map[string]Kind) {
	if len(kinds) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.kinds.Load()
	grown := make(map[string]Kind, len(cur)+len(kinds))
	for f, k := range cur {
		grown[f] = k
	}
	changed := false
	for f, k := range kinds {
		if _, ok := grown[f]; !ok && k >= KindInt && k <= KindBool {
			grown[f] = k
			changed = true
		}
	}
	if changed {
		r.kinds.Store(&grown)
		r.ver.Add(1)
	}
}

// SeedRows registers the kinds found in stored rows — the recovery
// path for fields that first appeared in a delta frame written after the
// manifest's kind table was last rewritten — checking each row exactly
// as Register checks a write. It returns the first row's error: a value
// of an invalid kind, or of another kind than its field's.
func (r *Registry) SeedRows(rows []Map) error {
	for _, m := range rows {
		if err := r.Register(m); err != nil {
			return err
		}
	}
	return nil
}
