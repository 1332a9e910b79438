// Package confassets implements the confidential-assets primitive set from
// ROADMAP item 13: Pedersen value commitments over P-256, bit-decomposed
// range proofs with batchable verification, commitment-to-zero proofs for
// conservation checks, and enclave-signed selective-disclosure receipts that
// third parties verify offline against the attested pk_tx.
//
// The group is NIST P-256 via the standard library. The deprecated
// elliptic.Curve scalar API is used deliberately: it is the only stdlib
// surface that exposes raw point arithmetic, and the module carries zero
// external dependencies by design. All scalars live in Z_n (n = group
// order); all serialized points are 33-byte compressed SEC1.
package confassets

import (
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"math/big"
	"sync"
)

// PointSize is the serialized (compressed SEC1) point length.
const PointSize = 33

// ScalarSize is the serialized scalar length (big-endian, mod group order).
const ScalarSize = 32

// ErrBadPoint is returned when a serialized point does not decode to a
// valid curve point.
var ErrBadPoint = errors.New("confassets: invalid curve point")

// ErrBadScalar is returned when a serialized scalar is not in [0, n).
var ErrBadScalar = errors.New("confassets: scalar out of range")

func curve() elliptic.Curve { return elliptic.P256() }

// groupOrder returns n, the prime order of the P-256 base-point group.
func groupOrder() *big.Int { return curve().Params().N }

// Point is an affine curve point. The zero Point (nil coordinates) is the
// group identity, matching the stdlib's (0,0)-as-infinity convention.
type Point struct {
	x, y *big.Int
}

// IsIdentity reports whether p is the group identity.
func (p Point) IsIdentity() bool {
	return p.x == nil || p.x.Sign() == 0 && p.y.Sign() == 0
}

// Equal reports whether two points are the same group element.
func (p Point) Equal(q Point) bool {
	if p.IsIdentity() || q.IsIdentity() {
		return p.IsIdentity() == q.IsIdentity()
	}
	return p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) == 0
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	if p.IsIdentity() {
		return q
	}
	if q.IsIdentity() {
		return p
	}
	x, y := curve().Add(p.x, p.y, q.x, q.y)
	if x.Sign() == 0 && y.Sign() == 0 {
		return Point{}
	}
	return Point{x, y}
}

// Neg returns -p.
func (p Point) Neg() Point {
	if p.IsIdentity() {
		return p
	}
	y := new(big.Int).Sub(curve().Params().P, p.y)
	return Point{new(big.Int).Set(p.x), y}
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return p.Add(q.Neg()) }

// mul returns k*p for a scalar already reduced mod n.
func (p Point) mul(k *big.Int) Point {
	if p.IsIdentity() || k.Sign() == 0 {
		return Point{}
	}
	x, y := curve().ScalarMult(p.x, p.y, k.Bytes())
	if x.Sign() == 0 && y.Sign() == 0 {
		return Point{}
	}
	return Point{x, y}
}

// mulBase returns k*G using the (faster) fixed-base path.
func mulBase(k *big.Int) Point {
	if k.Sign() == 0 {
		return Point{}
	}
	x, y := curve().ScalarBaseMult(k.Bytes())
	return Point{x, y}
}

// Bytes serializes p as a 33-byte compressed SEC1 point. The identity
// serializes as 33 zero bytes (not a valid SEC1 encoding, rejected by
// DecodePoint; commitments to real values are never the identity).
func (p Point) Bytes() []byte {
	if p.IsIdentity() {
		return make([]byte, PointSize)
	}
	return elliptic.MarshalCompressed(curve(), p.x, p.y)
}

// DecodePoint parses a 33-byte compressed SEC1 point. The identity encoding
// is rejected: no wire object in this package legitimately carries it.
func DecodePoint(b []byte) (Point, error) {
	if len(b) != PointSize {
		return Point{}, ErrBadPoint
	}
	x, y := elliptic.UnmarshalCompressed(curve(), b)
	if x == nil {
		return Point{}, ErrBadPoint
	}
	return Point{x, y}, nil
}

// scalarBytes serializes a scalar as 32 big-endian bytes.
func scalarBytes(k *big.Int) []byte {
	return k.FillBytes(make([]byte, ScalarSize))
}

// ScalarBytes serializes a scalar (blinding factor) as 32 big-endian
// bytes, for callers persisting openings.
func ScalarBytes(k *big.Int) []byte { return scalarBytes(k) }

// DecodeScalar parses a 32-byte big-endian scalar, rejecting values
// outside [0, n).
func DecodeScalar(b []byte) (*big.Int, error) { return decodeScalar(b) }

// decodeScalar parses a 32-byte big-endian scalar and checks it is < n.
func decodeScalar(b []byte) (*big.Int, error) {
	if len(b) != ScalarSize {
		return nil, ErrBadScalar
	}
	k := new(big.Int).SetBytes(b)
	if k.Cmp(groupOrder()) >= 0 {
		return nil, ErrBadScalar
	}
	return k, nil
}

var (
	generatorsOnce sync.Once
	genG, genH     Point
)

// generators returns (G, H). G is the standard P-256 base point. H is a
// nothing-up-my-sleeve second generator derived by try-and-increment
// hash-to-curve over a fixed domain string, so nobody knows log_G(H) and
// the Pedersen commitment is computationally binding.
func generators() (Point, Point) {
	generatorsOnce.Do(func() {
		p := curve().Params()
		genG = Point{p.Gx, p.Gy}
		cand := make([]byte, PointSize)
		cand[0] = 0x02
		for ctr := byte(0); ; ctr++ {
			d := sha256.Sum256([]byte("confide/confassets/H/v1\x00" + string(ctr)))
			copy(cand[1:], d[:])
			x, y := elliptic.UnmarshalCompressed(curve(), cand)
			if x != nil {
				genH = Point{x, y}
				return
			}
		}
	})
	return genG, genH
}

// deriveScalar derives a scalar in [1, n) deterministically from a secret
// key, a domain-separation label, and transcript parts, by HMAC-SHA256
// expansion to 64 bytes reduced mod n (reduction bias ~2^-128). It never
// returns zero: a zero candidate advances the expansion counter.
func deriveScalar(key []byte, domain string, parts ...[]byte) *big.Int {
	for ctr := byte(0); ; ctr++ {
		wide := make([]byte, 0, 64)
		for block := byte(1); block <= 2; block++ {
			mac := hmac.New(sha256.New, key)
			mac.Write([]byte(domain))
			for _, p := range parts {
				var ln [4]byte
				putU32(ln[:], uint32(len(p)))
				mac.Write(ln[:])
				mac.Write(p)
			}
			mac.Write([]byte{ctr, block})
			wide = mac.Sum(wide)
		}
		k := new(big.Int).SetBytes(wide)
		k.Mod(k, groupOrder())
		if k.Sign() != 0 {
			return k
		}
	}
}

// hashToScalar is deriveScalar over public transcript data (Fiat–Shamir
// challenges); the "key" is the domain itself so challenges from different
// protocols never collide.
func hashToScalar(domain string, parts ...[]byte) *big.Int {
	return deriveScalar([]byte(domain), domain, parts...)
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

func u64Bytes(v uint64) []byte {
	b := make([]byte, 8)
	putU64(b, v)
	return b
}
