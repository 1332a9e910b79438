// Package chain defines the consortium blockchain's core data types —
// transactions (public and confidential), blocks, receipts — together with
// the RLP canonical encoding they serialize with, Merkle commitments over
// them, and the two-stage transaction pools (un-verified / verified) used by
// the pre-verification pipeline.
//
// Byte ownership on the transaction path follows one rule: decoded values
// alias their input, and bytes handed across a package boundary are
// read-only. So a transaction decoded from a block or a gossip message keeps
// that message's bytes alive and never copies them, and no receiver may write
// into a payload it was given.
package chain

import (
	"errors"
	"fmt"
)

// Item is an RLP value: either a byte string or a list of Items. RLP
// (Recursive Length Prefix) is the light serialization protocol blockchains
// use for canonical, hash-stable encodings; the paper cites it as the
// serialization crossing the enclave boundary.
type Item struct {
	Str    []byte
	List   []Item
	IsList bool
}

// Bytes makes a string Item.
func Bytes(b []byte) Item { return Item{Str: b} }

// String makes a string Item from a Go string.
func String(s string) Item { return Item{Str: []byte(s)} }

// Uint encodes n as a big-endian string Item with no leading zeros (the RLP
// canonical integer form).
func Uint(n uint64) Item {
	if n == 0 {
		return Item{Str: []byte{}}
	}
	var buf [8]byte
	i := 8
	for n > 0 {
		i--
		buf[i] = byte(n)
		n >>= 8
	}
	return Item{Str: append([]byte(nil), buf[i:]...)}
}

// List makes a list Item.
func List(items ...Item) Item { return Item{List: items, IsList: true} }

// AsUint decodes a canonical RLP integer.
func (it Item) AsUint() (uint64, error) {
	if it.IsList {
		return 0, errors.New("rlp: expected string, got list")
	}
	if len(it.Str) > 8 {
		return 0, errors.New("rlp: integer overflows uint64")
	}
	if len(it.Str) > 0 && it.Str[0] == 0 {
		return 0, errors.New("rlp: integer has leading zero")
	}
	var n uint64
	for _, b := range it.Str {
		n = n<<8 | uint64(b)
	}
	return n, nil
}

// Encode serializes an Item to canonical RLP. It sizes the encoding first and
// then fills one buffer of exactly that size back to front, so each list's
// payload is in place before its header, whose length it sets, is written.
func Encode(it Item) []byte {
	buf := make([]byte, encodedSize(it))
	putItem(buf, len(buf), it)
	return buf
}

func encodedSize(it Item) int {
	if !it.IsList {
		if len(it.Str) == 1 && it.Str[0] < 0x80 {
			return 1
		}
		return headerSize(len(it.Str)) + len(it.Str)
	}
	n := 0
	for _, sub := range it.List {
		n += encodedSize(sub)
	}
	return headerSize(n) + n
}

func headerSize(n int) int {
	size := 1
	if n > 55 {
		for ; n > 0; n >>= 8 {
			size++
		}
	}
	return size
}

// putItem writes it into buf so that it ends just before buf[end], and
// returns where it starts.
func putItem(buf []byte, end int, it Item) int {
	if !it.IsList {
		s := it.Str
		if len(s) == 1 && s[0] < 0x80 {
			buf[end-1] = s[0]
			return end - 1
		}
		start := end - len(s)
		copy(buf[start:], s)
		return putHeader(buf, start, len(s), 0x80)
	}
	start := end
	for i := len(it.List) - 1; i >= 0; i-- {
		start = putItem(buf, start, it.List[i])
	}
	return putHeader(buf, start, end-start, 0xc0)
}

// putHeader writes the prefix of an n-byte payload so that it ends just
// before buf[end], and returns where it starts.
func putHeader(buf []byte, end, n int, base byte) int {
	start := end - headerSize(n)
	if n <= 55 {
		buf[start] = base + byte(n)
		return start
	}
	buf[start] = base + 55 + byte(end-start-1)
	for i := end - 1; i > start; i, n = i-1, n>>8 {
		buf[i] = byte(n)
	}
	return start
}

// ErrRLP is the base decoding error.
var ErrRLP = errors.New("rlp: malformed input")

// Decode parses a single RLP item, requiring the input to be fully consumed.
// The decoded strings are sub-slices of data, not copies, each clipped to its
// own capacity so that an append to one can never write into its neighbour;
// an empty string decodes as nil.
func Decode(data []byte) (Item, error) {
	it, rest, err := decodeItem(data)
	if err != nil {
		return Item{}, err
	}
	if len(rest) != 0 {
		return Item{}, fmt.Errorf("%w: %d trailing bytes", ErrRLP, len(rest))
	}
	return it, nil
}

func decodeItem(data []byte) (Item, []byte, error) {
	isList, off, n, err := readHeader(data)
	if err != nil {
		return Item{}, nil, err
	}
	payload, rest := data[off:off+n:off+n], data[off+n:]
	if !isList {
		if n == 0 {
			payload = nil
		}
		return Item{Str: payload}, rest, nil
	}
	list, err := decodeList(payload)
	if err != nil {
		return Item{}, nil, err
	}
	return Item{List: list, IsList: true}, rest, nil
}

// readHeader parses the prefix of the item at the start of data: whether it
// is a list, the offset of its payload and the payload's length, which data
// is checked to hold. It is the one home of the canonical-form rules, shared
// by decodeItem and by decodeList's count.
func readHeader(data []byte) (isList bool, off, n int, err error) {
	if len(data) == 0 {
		return false, 0, 0, fmt.Errorf("%w: empty input", ErrRLP)
	}
	b := data[0]
	switch {
	case b < 0x80:
		return false, 0, 1, nil
	case b <= 0xb7:
		off, n = 1, int(b-0x80)
		if n == 1 && len(data) > 1 && data[1] < 0x80 {
			return false, 0, 0, fmt.Errorf("%w: non-canonical single byte", ErrRLP)
		}
	case b <= 0xbf:
		if off, n, err = readLength(data, int(b-0xb7)); err != nil {
			return false, 0, 0, err
		}
	case b <= 0xf7:
		isList, off, n = true, 1, int(b-0xc0)
	default:
		isList = true
		if off, n, err = readLength(data, int(b-0xf7)); err != nil {
			return false, 0, 0, err
		}
	}
	if len(data)-off < n {
		return false, 0, 0, fmt.Errorf("%w: short payload", ErrRLP)
	}
	return isList, off, n, nil
}

// readLength reads the long-form length that follows data's prefix byte.
func readLength(data []byte, lenLen int) (off, n int, err error) {
	if lenLen > 8 || len(data) < 1+lenLen {
		return 0, 0, fmt.Errorf("%w: bad length-of-length", ErrRLP)
	}
	if data[1] == 0 {
		return 0, 0, fmt.Errorf("%w: length has leading zero", ErrRLP)
	}
	for _, b := range data[1 : 1+lenLen] {
		if n > (1<<31)/256 {
			return 0, 0, fmt.Errorf("%w: length overflow", ErrRLP)
		}
		n = n<<8 | int(b)
	}
	if n <= 55 {
		return 0, 0, fmt.Errorf("%w: non-canonical long form", ErrRLP)
	}
	return 1 + lenLen, n, nil
}

// decodeList counts the payload's items before it allocates their slice.
func decodeList(payload []byte) ([]Item, error) {
	count := 0
	for p := payload; len(p) > 0; count++ {
		_, off, n, err := readHeader(p)
		if err != nil {
			return nil, err
		}
		p = p[off+n:]
	}
	if count == 0 {
		return nil, nil
	}
	items := make([]Item, count)
	for i := range items {
		var err error
		if items[i], payload, err = decodeItem(payload); err != nil {
			return nil, err
		}
	}
	return items, nil
}
