// Package crypto provides the cryptographic substrate used by CONFIDE:
// Keccak-256 (implemented from scratch, since the standard library has no
// legacy-Keccak), the ECIES-over-P-256 digital envelope of the T-Protocol,
// one-time transaction key derivation, authenticated encryption with
// associated data for the D-Protocol, and ECDSA transaction signatures.
package crypto

import "encoding/binary"

// keccakRate256 is the sponge rate, in bytes, for a 256-bit Keccak digest
// (1600-bit state minus 512-bit capacity).
const keccakRate256 = 136

// HashSize is the byte length of both digest algorithms used on-chain.
const HashSize = 32

var keccakRC = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
	0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
	0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

var keccakRotc = [24]uint{
	1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14,
	27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
}

var keccakPiln = [24]int{
	10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4,
	15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
}

func rotl64(x uint64, n uint) uint64 { return x<<n | x>>(64-n) }

// keccakF1600 applies the full 24-round Keccak-f[1600] permutation in place.
func keccakF1600(a *[25]uint64) {
	var bc [5]uint64
	for round := 0; round < 24; round++ {
		// Theta
		for i := 0; i < 5; i++ {
			bc[i] = a[i] ^ a[i+5] ^ a[i+10] ^ a[i+15] ^ a[i+20]
		}
		for i := 0; i < 5; i++ {
			t := bc[(i+4)%5] ^ rotl64(bc[(i+1)%5], 1)
			for j := 0; j < 25; j += 5 {
				a[j+i] ^= t
			}
		}
		// Rho and Pi
		t := a[1]
		for i := 0; i < 24; i++ {
			j := keccakPiln[i]
			bc[0] = a[j]
			a[j] = rotl64(t, keccakRotc[i])
			t = bc[0]
		}
		// Chi
		for j := 0; j < 25; j += 5 {
			for i := 0; i < 5; i++ {
				bc[i] = a[j+i]
			}
			for i := 0; i < 5; i++ {
				a[j+i] ^= ^bc[(i+1)%5] & bc[(i+2)%5]
			}
		}
		// Iota
		a[0] ^= keccakRC[round]
	}
}

// KeccakState is a streaming Keccak-256 hasher. The zero value is ready to
// use. It implements the legacy Keccak padding (0x01) used by Ethereum,
// not the SHA3 padding (0x06).
type KeccakState struct {
	a   [25]uint64
	buf [keccakRate256]byte
	n   int
}

// Write absorbs p into the sponge. It never fails.
func (k *KeccakState) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		c := copy(k.buf[k.n:], p)
		k.n += c
		p = p[c:]
		if k.n == keccakRate256 {
			k.absorb()
		}
	}
	return total, nil
}

func (k *KeccakState) absorb() {
	for i := 0; i < keccakRate256/8; i++ {
		k.a[i] ^= binary.LittleEndian.Uint64(k.buf[i*8:])
	}
	keccakF1600(&k.a)
	k.n = 0
}

// Sum appends the 32-byte digest to b and returns the result. The hasher
// state is not consumed; further writes are invalid after Sum.
func (k *KeccakState) Sum(b []byte) []byte {
	// Pad: 0x01 ... 0x80 within the rate block.
	for i := k.n; i < keccakRate256; i++ {
		k.buf[i] = 0
	}
	k.buf[k.n] ^= 0x01
	k.buf[keccakRate256-1] ^= 0x80
	k.n = keccakRate256
	k.absorb()
	var out [HashSize]byte
	for i := 0; i < HashSize/8; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], k.a[i])
	}
	return append(b, out[:]...)
}

// Reset restores the hasher to its initial state.
func (k *KeccakState) Reset() { *k = KeccakState{} }

// Size returns the digest length in bytes.
func (k *KeccakState) Size() int { return HashSize }

// BlockSize returns the sponge rate in bytes.
func (k *KeccakState) BlockSize() int { return keccakRate256 }

// Keccak256 returns the legacy Keccak-256 digest of the concatenation of the
// given byte slices.
func Keccak256(data ...[]byte) [HashSize]byte {
	var k KeccakState
	for _, d := range data {
		k.Write(d)
	}
	var out [HashSize]byte
	copy(out[:], k.Sum(nil))
	return out
}
