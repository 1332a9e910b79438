package ccle

import (
	"fmt"
	"sort"
)

// ValueKind tags dynamic values.
type ValueKind int

// Value kinds.
const (
	ValNone ValueKind = iota
	// ValInt covers all integer scalars and bool (0/1).
	ValInt
	// ValStr is a byte string.
	ValStr
	// ValTable is a composite with named fields.
	ValTable
	// ValVec is a vector of values.
	ValVec
	// ValMap is a string-keyed map of values.
	ValMap
	// ValRedacted marks a confidential field decoded without a key: the
	// bytes exist but are unreadable — exactly what a third-party auditor
	// sees.
	ValRedacted
)

// Value is a dynamic CCLe value tree.
type Value struct {
	Kind   ValueKind
	Int    int64
	Str    []byte
	Fields map[string]*Value
	Vec    []*Value
	Map    map[string]*Value
}

// Int64 makes an integer value.
func Int64(v int64) *Value { return &Value{Kind: ValInt, Int: v} }

// Str makes a string value.
func Str(s string) *Value { return &Value{Kind: ValStr, Str: []byte(s)} }

// StrBytes makes a string value from bytes.
func StrBytes(b []byte) *Value { return &Value{Kind: ValStr, Str: b} }

// TableVal makes a composite value.
func TableVal(fields map[string]*Value) *Value { return &Value{Kind: ValTable, Fields: fields} }

// VecVal makes a vector value.
func VecVal(elems ...*Value) *Value { return &Value{Kind: ValVec, Vec: elems} }

// MapVal makes a map value.
func MapVal(m map[string]*Value) *Value { return &Value{Kind: ValMap, Map: m} }

// Redacted is the placeholder for unreadable confidential content.
func Redacted() *Value { return &Value{Kind: ValRedacted} }

// Equal deep-compares two value trees.
func Equal(a, b *Value) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case ValInt:
		return a.Int == b.Int
	case ValStr:
		return string(a.Str) == string(b.Str)
	case ValRedacted:
		return true
	case ValTable:
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for k, av := range a.Fields {
			if !Equal(av, b.Fields[k]) {
				return false
			}
		}
		return true
	case ValVec:
		if len(a.Vec) != len(b.Vec) {
			return false
		}
		for i := range a.Vec {
			if !Equal(a.Vec[i], b.Vec[i]) {
				return false
			}
		}
		return true
	case ValMap:
		if len(a.Map) != len(b.Map) {
			return false
		}
		for k, av := range a.Map {
			if !Equal(av, b.Map[k]) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders a value tree for debugging and audit output.
func (v *Value) String() string {
	if v == nil {
		return "<nil>"
	}
	switch v.Kind {
	case ValInt:
		return fmt.Sprintf("%d", v.Int)
	case ValStr:
		return fmt.Sprintf("%q", v.Str)
	case ValRedacted:
		return "<confidential>"
	case ValTable:
		keys := make([]string, 0, len(v.Fields))
		for k := range v.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := "{"
		for i, k := range keys {
			if i > 0 {
				out += ", "
			}
			out += k + ": " + v.Fields[k].String()
		}
		return out + "}"
	case ValVec:
		out := "["
		for i, e := range v.Vec {
			if i > 0 {
				out += ", "
			}
			out += e.String()
		}
		return out + "]"
	case ValMap:
		keys := make([]string, 0, len(v.Map))
		for k := range v.Map {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := "map{"
		for i, k := range keys {
			if i > 0 {
				out += ", "
			}
			out += fmt.Sprintf("%q: %s", k, v.Map[k].String())
		}
		return out + "}"
	}
	return "<none>"
}
