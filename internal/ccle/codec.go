package ccle

import (
	"encoding/binary"
	"errors"
	"fmt"

	ccrypto "confide/internal/crypto"
)

// Cipher encrypts and decrypts confidential field payloads. The associated
// data binds each ciphertext to its schema path plus whatever run-time
// context the engine supplies (contract identity, owner, security version —
// the D-Protocol's authentication metadata).
type Cipher interface {
	Seal(plaintext, aad []byte) ([]byte, error)
	Open(ciphertext, aad []byte) ([]byte, error)
}

// AEADCipher is the production Cipher: AES-256-GCM under the states root
// key with contextual AAD.
type AEADCipher struct {
	// Key is k_states (or a key derived from it).
	Key []byte
	// Context is prefixed to every AAD (e.g. contract address + owner +
	// security version).
	Context []byte
}

// Seal implements Cipher.
func (c *AEADCipher) Seal(plaintext, aad []byte) ([]byte, error) {
	return ccrypto.SealAEAD(c.Key, plaintext, append(append([]byte(nil), c.Context...), aad...))
}

// Open implements Cipher.
func (c *AEADCipher) Open(ciphertext, aad []byte) ([]byte, error) {
	return ccrypto.OpenAEAD(c.Key, ciphertext, append(append([]byte(nil), c.Context...), aad...))
}

// Wire flags per field entry.
const (
	flagPlain     = 0x00
	flagEncrypted = 0x01
)

// ErrNeedCipher is returned when encoding confidential fields without a
// cipher.
var ErrNeedCipher = errors.New("ccle: schema has confidential fields but no cipher was provided")

// ErrBadEncoding reports malformed wire bytes.
var ErrBadEncoding = errors.New("ccle: malformed encoding")

// Encode serializes a value tree for the schema's root table. Confidential
// fields (recursively including their whole subtree) are sealed with the
// cipher; public fields stay in the clear.
func Encode(s *Schema, v *Value, cipher Cipher) ([]byte, error) {
	return encodeTable(s, s.RootTable(), v, cipher)
}

func encodeTable(s *Schema, t *Table, v *Value, cipher Cipher) ([]byte, error) {
	if v == nil || v.Kind != ValTable {
		return nil, fmt.Errorf("ccle: %s: expected table value", t.Name)
	}
	var out []byte
	var present []*Field
	for _, f := range t.Fields {
		if v.Fields[f.Name] != nil {
			present = append(present, f)
		}
	}
	out = binary.AppendUvarint(out, uint64(len(present)))
	for _, f := range present {
		fv := v.Fields[f.Name]
		payload, err := encodeFieldPayload(s, t, f, fv, cipher)
		if err != nil {
			return nil, err
		}
		flags := byte(flagPlain)
		if f.Confidential {
			if cipher == nil {
				return nil, ErrNeedCipher
			}
			sealed, err := cipher.Seal(payload, []byte(t.Name+"."+f.Name))
			if err != nil {
				return nil, err
			}
			payload = sealed
			flags = flagEncrypted
		}
		out = binary.AppendUvarint(out, uint64(f.Index))
		out = append(out, flags)
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
	}
	return out, nil
}

func encodeFieldPayload(s *Schema, t *Table, f *Field, fv *Value, cipher Cipher) ([]byte, error) {
	// Inside a confidential field the subtree is sealed as one blob, so
	// nested encryption is unnecessary; still pass the cipher through so
	// independently-marked nested fields keep working.
	switch {
	case f.IsMap:
		if fv.Kind != ValMap {
			return nil, fmt.Errorf("ccle: %s.%s: expected map value", t.Name, f.Name)
		}
		var out []byte
		out = binary.AppendUvarint(out, uint64(len(fv.Map)))
		for _, key := range sortedKeys(fv.Map) {
			elem := fv.Map[key]
			blob, err := encodeElem(s, t, f, elem, cipher)
			if err != nil {
				return nil, err
			}
			out = binary.AppendUvarint(out, uint64(len(key)))
			out = append(out, key...)
			out = binary.AppendUvarint(out, uint64(len(blob)))
			out = append(out, blob...)
		}
		return out, nil

	case f.IsVector:
		if fv.Kind != ValVec {
			return nil, fmt.Errorf("ccle: %s.%s: expected vector value", t.Name, f.Name)
		}
		var out []byte
		out = binary.AppendUvarint(out, uint64(len(fv.Vec)))
		for _, elem := range fv.Vec {
			blob, err := encodeElem(s, t, f, elem, cipher)
			if err != nil {
				return nil, err
			}
			out = binary.AppendUvarint(out, uint64(len(blob)))
			out = append(out, blob...)
		}
		return out, nil

	case f.TableRef != "":
		return encodeTable(s, s.Tables[f.TableRef], fv, cipher)

	case f.Scalar == KindString:
		if fv.Kind != ValStr {
			return nil, fmt.Errorf("ccle: %s.%s: expected string value", t.Name, f.Name)
		}
		return fv.Str, nil

	default:
		if fv.Kind != ValInt {
			return nil, fmt.Errorf("ccle: %s.%s: expected integer value", t.Name, f.Name)
		}
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], fv.Int)
		return buf[:n], nil
	}
}

func encodeElem(s *Schema, t *Table, f *Field, elem *Value, cipher Cipher) ([]byte, error) {
	if f.TableRef != "" {
		return encodeTable(s, s.Tables[f.TableRef], elem, cipher)
	}
	if f.Scalar == KindString {
		if elem.Kind != ValStr {
			return nil, fmt.Errorf("ccle: %s.%s: expected string element", t.Name, f.Name)
		}
		return elem.Str, nil
	}
	if elem.Kind != ValInt {
		return nil, fmt.Errorf("ccle: %s.%s: expected integer element", t.Name, f.Name)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], elem.Int)
	return buf[:n], nil
}

func sortedKeys(m map[string]*Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Deterministic encoding: sort keys (small maps; insertion sort).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Decode parses wire bytes for the schema's root table. With a cipher,
// confidential fields decrypt and decode fully; without one they decode to
// Redacted values (the auditor's view), while public fields remain fully
// readable.
func Decode(s *Schema, data []byte, cipher Cipher) (*Value, error) {
	v, rest, err := decodeTable(s, s.RootTable(), data, cipher)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadEncoding)
	}
	return v, nil
}

func decodeTable(s *Schema, t *Table, data []byte, cipher Cipher) (*Value, []byte, error) {
	count, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if count > uint64(len(t.Fields)) {
		return nil, nil, fmt.Errorf("%w: %s has %d fields, encoding claims %d", ErrBadEncoding, t.Name, len(t.Fields), count)
	}
	v := &Value{Kind: ValTable, Fields: make(map[string]*Value, count)}
	for i := uint64(0); i < count; i++ {
		idx, rest, err := readUvarint(data)
		if err != nil {
			return nil, nil, err
		}
		data = rest
		if idx >= uint64(len(t.Fields)) {
			return nil, nil, fmt.Errorf("%w: field index %d out of range in %s", ErrBadEncoding, idx, t.Name)
		}
		f := t.Fields[idx]
		if len(data) < 1 {
			return nil, nil, ErrBadEncoding
		}
		flags := data[0]
		data = data[1:]
		n, rest2, err := readUvarint(data)
		if err != nil {
			return nil, nil, err
		}
		data = rest2
		if uint64(len(data)) < n {
			return nil, nil, fmt.Errorf("%w: truncated field %s.%s", ErrBadEncoding, t.Name, f.Name)
		}
		payload := data[:n]
		data = data[n:]

		if flags > flagEncrypted {
			return nil, nil, fmt.Errorf("%w: unknown flags 0x%02x on %s.%s", ErrBadEncoding, flags, t.Name, f.Name)
		}
		if flags == flagEncrypted {
			if cipher == nil {
				v.Fields[f.Name] = Redacted()
				continue
			}
			plain, err := cipher.Open(payload, []byte(t.Name+"."+f.Name))
			if err != nil {
				return nil, nil, fmt.Errorf("ccle: %s.%s: %w", t.Name, f.Name, err)
			}
			payload = plain
		}
		fv, err := decodeFieldPayload(s, t, f, payload, cipher)
		if err != nil {
			return nil, nil, err
		}
		v.Fields[f.Name] = fv
	}
	return v, data, nil
}

func decodeFieldPayload(s *Schema, t *Table, f *Field, payload []byte, cipher Cipher) (*Value, error) {
	switch {
	case f.IsMap:
		count, rest, err := readUvarint(payload)
		if err != nil {
			return nil, err
		}
		payload = rest
		// count is untrusted; each entry takes at least two payload bytes.
		out := &Value{Kind: ValMap, Map: make(map[string]*Value, min(count, uint64(len(payload))/2))}
		for i := uint64(0); i < count; i++ {
			klen, rest, err := readUvarint(payload)
			if err != nil {
				return nil, err
			}
			payload = rest
			if uint64(len(payload)) < klen {
				return nil, ErrBadEncoding
			}
			key := string(payload[:klen])
			payload = payload[klen:]
			blobLen, rest2, err := readUvarint(payload)
			if err != nil {
				return nil, err
			}
			payload = rest2
			if uint64(len(payload)) < blobLen {
				return nil, ErrBadEncoding
			}
			elem, err := decodeElem(s, t, f, payload[:blobLen], cipher)
			if err != nil {
				return nil, err
			}
			out.Map[key] = elem
			payload = payload[blobLen:]
		}
		if len(payload) != 0 {
			return nil, fmt.Errorf("%w: trailing map bytes in %s.%s", ErrBadEncoding, t.Name, f.Name)
		}
		return out, nil

	case f.IsVector:
		count, rest, err := readUvarint(payload)
		if err != nil {
			return nil, err
		}
		payload = rest
		out := &Value{Kind: ValVec}
		for i := uint64(0); i < count; i++ {
			blobLen, rest, err := readUvarint(payload)
			if err != nil {
				return nil, err
			}
			payload = rest
			if uint64(len(payload)) < blobLen {
				return nil, ErrBadEncoding
			}
			elem, err := decodeElem(s, t, f, payload[:blobLen], cipher)
			if err != nil {
				return nil, err
			}
			out.Vec = append(out.Vec, elem)
			payload = payload[blobLen:]
		}
		if len(payload) != 0 {
			return nil, fmt.Errorf("%w: trailing vector bytes in %s.%s", ErrBadEncoding, t.Name, f.Name)
		}
		return out, nil

	case f.TableRef != "":
		v, rest, err := decodeTable(s, s.Tables[f.TableRef], payload, cipher)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: trailing table bytes in %s.%s", ErrBadEncoding, t.Name, f.Name)
		}
		return v, nil

	case f.Scalar == KindString:
		return StrBytes(append([]byte(nil), payload...)), nil

	default:
		n, used := binary.Varint(payload)
		if used <= 0 || used != len(payload) {
			return nil, fmt.Errorf("%w: bad integer in %s.%s", ErrBadEncoding, t.Name, f.Name)
		}
		return Int64(n), nil
	}
}

func decodeElem(s *Schema, t *Table, f *Field, blob []byte, cipher Cipher) (*Value, error) {
	if f.TableRef != "" {
		v, rest, err := decodeTable(s, s.Tables[f.TableRef], blob, cipher)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, ErrBadEncoding
		}
		return v, nil
	}
	if f.Scalar == KindString {
		return StrBytes(append([]byte(nil), blob...)), nil
	}
	n, used := binary.Varint(blob)
	if used <= 0 || used != len(blob) {
		return nil, ErrBadEncoding
	}
	return Int64(n), nil
}

func readUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, ErrBadEncoding
	}
	return v, data[n:], nil
}
