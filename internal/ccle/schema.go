// Package ccle implements the Confidential smart Contract Language
// extension (CCLe): an IDL, in the style of Flatbuffers schemas, that lets
// contract authors mark exactly which parts of their data model are
// confidential. The codec encrypts marked fields (recursively, for
// composites) with authenticated encryption while leaving public fields
// readable — so a third-party auditor can decode an asset table's public
// attributes without ever holding a key, and the enclave pays encryption
// cost only for the bytes that need it.
//
// The schema syntax follows the paper's Listing 1:
//
//	attribute "map";
//	attribute "confidential";
//	table Account {
//	  user_id: string;
//	  organization: string(confidential);
//	  asset_map: [Asset](map, confidential);
//	}
//	table Asset { type: ubyte; amount: ulong; }
//	root_type Account;
package ccle

import (
	"fmt"
	"strings"
)

// ScalarKind enumerates primitive field types.
type ScalarKind int

// Scalar kinds.
const (
	KindNone ScalarKind = iota
	KindBool
	KindByte
	KindUByte
	KindShort
	KindUShort
	KindInt
	KindUInt
	KindLong
	KindULong
	KindString
)

var scalarNames = map[string]ScalarKind{
	"bool": KindBool, "byte": KindByte, "ubyte": KindUByte,
	"short": KindShort, "ushort": KindUShort,
	"int": KindInt, "uint": KindUInt,
	"long": KindLong, "ulong": KindULong,
	"string": KindString,
}

// Field is one table member.
type Field struct {
	Name string
	// Scalar is set for primitive fields; TableRef for composites.
	Scalar   ScalarKind
	TableRef string
	// IsVector marks [T] syntax; IsMap additionally marks the (map)
	// attribute (string-keyed).
	IsVector bool
	IsMap    bool
	// Confidential marks the field (and, recursively, everything inside
	// it) as encrypted at rest.
	Confidential bool
	// Index is the stable wire tag.
	Index int
}

// Table is one composite type.
type Table struct {
	Name   string
	Fields []*Field
	byName map[string]*Field
}

// Field returns a field by name, or nil.
func (t *Table) Field(name string) *Field { return t.byName[name] }

// Schema is a parsed, validated CCLe schema.
type Schema struct {
	Tables map[string]*Table
	// Order preserves declaration order for deterministic codegen.
	Order []string
	Root  string
	// attrs are declared attribute names.
	attrs map[string]bool
}

// RootTable returns the root table.
func (s *Schema) RootTable() *Table { return s.Tables[s.Root] }

// ParseSchema parses and validates CCLe schema text.
func ParseSchema(src string) (*Schema, error) {
	p := &schemaParser{src: src, line: 1}
	s := &Schema{Tables: make(map[string]*Table), attrs: make(map[string]bool)}
	for {
		p.skipSpace()
		if p.eof() {
			break
		}
		word, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch word {
		case "attribute":
			p.skipSpace()
			name, err := p.quoted()
			if err != nil {
				return nil, err
			}
			s.attrs[name] = true
			if err := p.expect(';'); err != nil {
				return nil, err
			}
		case "table":
			t, err := p.table(s)
			if err != nil {
				return nil, err
			}
			if _, dup := s.Tables[t.Name]; dup {
				return nil, fmt.Errorf("ccle:%d: table %q redefined", p.line, t.Name)
			}
			s.Tables[t.Name] = t
			s.Order = append(s.Order, t.Name)
		case "root_type":
			p.skipSpace()
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if s.Root != "" {
				return nil, fmt.Errorf("ccle:%d: root_type declared twice", p.line)
			}
			s.Root = name
			if err := p.expect(';'); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("ccle:%d: unexpected %q", p.line, word)
		}
	}
	return s, s.validate()
}

func (s *Schema) validate() error {
	if s.Root == "" {
		return fmt.Errorf("ccle: schema has no root_type")
	}
	if _, ok := s.Tables[s.Root]; !ok {
		return fmt.Errorf("ccle: root_type %q is not a table", s.Root)
	}
	for _, name := range s.Order {
		t := s.Tables[name]
		for _, f := range t.Fields {
			if f.TableRef != "" {
				if _, ok := s.Tables[f.TableRef]; !ok {
					return fmt.Errorf("ccle: %s.%s references unknown table %q", t.Name, f.Name, f.TableRef)
				}
			}
			if f.IsMap && !f.IsVector {
				return fmt.Errorf("ccle: %s.%s: map attribute requires a [T] composite", t.Name, f.Name)
			}
		}
	}
	return nil
}

type schemaParser struct {
	src  string
	pos  int
	line int
}

func (p *schemaParser) eof() bool { return p.pos >= len(p.src) }

func (p *schemaParser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '\n' {
			p.line++
			p.pos++
		} else if c == ' ' || c == '\t' || c == '\r' {
			p.pos++
		} else if c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/' {
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		} else {
			break
		}
	}
}

func (p *schemaParser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.pos++
		} else {
			break
		}
	}
	if p.pos == start {
		return "", fmt.Errorf("ccle:%d: expected identifier", p.line)
	}
	return p.src[start:p.pos], nil
}

func (p *schemaParser) quoted() (string, error) {
	p.skipSpace()
	if p.eof() || p.src[p.pos] != '"' {
		return "", fmt.Errorf("ccle:%d: expected quoted string", p.line)
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != '"' {
		p.pos++
	}
	if p.eof() {
		return "", fmt.Errorf("ccle:%d: unterminated string", p.line)
	}
	out := p.src[start:p.pos]
	p.pos++
	return out, nil
}

func (p *schemaParser) expect(c byte) error {
	p.skipSpace()
	if p.eof() || p.src[p.pos] != c {
		return fmt.Errorf("ccle:%d: expected %q", p.line, string(c))
	}
	p.pos++
	return nil
}

func (p *schemaParser) peek(c byte) bool {
	p.skipSpace()
	return !p.eof() && p.src[p.pos] == c
}

func (p *schemaParser) table(s *Schema) (*Table, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, byName: make(map[string]*Field)}
	if err := p.expect('{'); err != nil {
		return nil, err
	}
	for !p.peek('}') {
		f, err := p.field(s)
		if err != nil {
			return nil, err
		}
		if _, dup := t.byName[f.Name]; dup {
			return nil, fmt.Errorf("ccle:%d: field %q redefined in %s", p.line, f.Name, name)
		}
		f.Index = len(t.Fields)
		t.Fields = append(t.Fields, f)
		t.byName[f.Name] = f
	}
	p.pos++ // consume }
	return t, nil
}

func (p *schemaParser) field(s *Schema) (*Field, error) {
	f := &Field{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	f.Name = name
	if err := p.expect(':'); err != nil {
		return nil, err
	}
	// Type: scalar, Table, or [Table].
	if p.peek('[') {
		p.pos++
		ref, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(']'); err != nil {
			return nil, err
		}
		f.IsVector = true
		if k, isScalar := scalarNames[ref]; isScalar {
			f.Scalar = k
		} else {
			f.TableRef = ref
		}
	} else {
		typeName, err := p.ident()
		if err != nil {
			return nil, err
		}
		if k, ok := scalarNames[typeName]; ok {
			f.Scalar = k
		} else {
			f.TableRef = typeName
		}
	}
	// Optional attribute list: (map, confidential).
	if p.peek('(') {
		p.pos++
		for {
			attr, err := p.ident()
			if err != nil {
				return nil, err
			}
			if !s.attrs[attr] {
				return nil, fmt.Errorf("ccle:%d: attribute %q not declared", p.line, attr)
			}
			switch attr {
			case "map":
				f.IsMap = true
			case "confidential":
				f.Confidential = true
			default:
				return nil, fmt.Errorf("ccle:%d: unsupported attribute %q", p.line, attr)
			}
			if p.peek(',') {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
	}
	if err := p.expect(';'); err != nil {
		return nil, err
	}
	return f, nil
}

// ConfidentialPaths lists every confidential field as "Table.field", a
// convenience for audits and tests.
func (s *Schema) ConfidentialPaths() []string {
	var out []string
	for _, name := range s.Order {
		for _, f := range s.Tables[name].Fields {
			if f.Confidential {
				out = append(out, name+"."+f.Name)
			}
		}
	}
	return out
}

// String renders the schema back to (normalized) CCLe text.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString("attribute \"map\";\nattribute \"confidential\";\n\n")
	for _, name := range s.Order {
		t := s.Tables[name]
		fmt.Fprintf(&b, "table %s {\n", t.Name)
		for _, f := range t.Fields {
			fmt.Fprintf(&b, "  %s: ", f.Name)
			typeName := f.TableRef
			if f.Scalar != KindNone {
				for n, k := range scalarNames {
					if k == f.Scalar {
						typeName = n
						break
					}
				}
			}
			if f.IsVector {
				fmt.Fprintf(&b, "[%s]", typeName)
			} else {
				b.WriteString(typeName)
			}
			var attrs []string
			if f.IsMap {
				attrs = append(attrs, "map")
			}
			if f.Confidential {
				attrs = append(attrs, "confidential")
			}
			if len(attrs) > 0 {
				fmt.Fprintf(&b, "(%s)", strings.Join(attrs, ", "))
			}
			b.WriteString(";\n")
		}
		b.WriteString("}\n\n")
	}
	fmt.Fprintf(&b, "root_type %s;\n", s.Root)
	return b.String()
}
