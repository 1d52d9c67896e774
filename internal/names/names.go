// Package names implements the TINN node-name machinery of §1.1.2: node
// names as adversarial permutations of {0..n-1}, plus the hashing
// reduction of [Arias et al. 2006] that lets nodes choose arbitrary
// (e.g. 128-bit) names: a universal hash family maps self-chosen names
// onto {0..n-1} with O(1) expected collisions per slot, so dictionaries
// keyed by hashed name grow only by a constant factor.
package names

import (
	"fmt"
	"math/rand"
)

// Permutation maps topological node indices to TINN names and back.
// Names[v] is the name of node v; Node(name) inverts.
type Permutation struct {
	Names []int32
	nodes []int32
}

// NewPermutation validates that names is a permutation of {0..n-1} and
// builds the inverse.
func NewPermutation(names []int32) (*Permutation, error) {
	n := len(names)
	nodes := make([]int32, n)
	seen := make([]bool, n)
	for v, nm := range names {
		if nm < 0 || int(nm) >= n {
			return nil, fmt.Errorf("names: name %d out of range [0,%d)", nm, n)
		}
		if seen[nm] {
			return nil, fmt.Errorf("names: duplicate name %d", nm)
		}
		seen[nm] = true
		nodes[nm] = int32(v)
	}
	return &Permutation{Names: names, nodes: nodes}, nil
}

// Identity returns the identity naming on n nodes.
func Identity(n int) *Permutation {
	names := make([]int32, n)
	for i := range names {
		names[i] = int32(i)
	}
	p, _ := NewPermutation(names)
	return p
}

// Random returns a uniformly random adversarial naming.
func Random(n int, rng *rand.Rand) *Permutation {
	names := make([]int32, n)
	for i, v := range rng.Perm(n) {
		names[i] = int32(v)
	}
	p, _ := NewPermutation(names)
	return p
}

// Reversed returns the naming n-1, n-2, ..., 0 — a deterministic
// adversarial choice that de-correlates names from indices.
func Reversed(n int) *Permutation {
	names := make([]int32, n)
	for i := range names {
		names[i] = int32(n - 1 - i)
	}
	p, _ := NewPermutation(names)
	return p
}

// Name returns the name of node v.
func (p *Permutation) Name(v int32) int32 { return p.Names[v] }

// Node returns the node carrying the given name.
func (p *Permutation) Node(name int32) int32 { return p.nodes[name] }

// N returns the number of nodes.
func (p *Permutation) N() int { return len(p.Names) }

// --- Hashing reduction for self-chosen names ---

// hashPrime is a Mersenne prime comfortably above any 61-bit key chunk,
// giving a true universal family h(x) = ((a*x + b) mod p) mod n.
const hashPrime = (1 << 61) - 1

// Hasher is one member of the universal hash family, mapping arbitrary
// byte-string names to slots {0..n-1}.
type Hasher struct {
	A, B uint64
	N    int
}

// NewHasher draws a hash function from the family. Per the paper's
// footnote, the function must be chosen AFTER the adversary fixes the
// names, which the caller controls by seeding rng appropriately.
func NewHasher(n int, rng *rand.Rand) Hasher {
	a := uint64(rng.Int63n(hashPrime-1)) + 1
	b := uint64(rng.Int63n(hashPrime))
	return Hasher{A: a, B: b, N: n}
}

// mulmod computes (x * y) mod hashPrime without overflow via 128-bit
// schoolbook multiplication and Mersenne folding (2^61 ≡ 1 mod p).
func mulmod(x, y uint64) uint64 {
	hi, lo := umul128(x, y)
	return reduce128(hi, lo)
}

// umul128 returns the 128-bit product of x and y.
func umul128(x, y uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	xl, xh := x&mask, x>>32
	yl, yh := y&mask, y>>32
	ll := xl * yl
	lh := xl * yh
	hl := xh * yl
	hh := xh * yh
	mid := lh + (ll >> 32) + (hl & mask)
	lo = (mid << 32) | (ll & mask)
	hi = hh + (mid >> 32) + (hl >> 32)
	return hi, lo
}

// reduce128 reduces a 128-bit value modulo 2^61 - 1.
func reduce128(hi, lo uint64) uint64 {
	// value = hi*2^64 + lo; 2^64 ≡ 8 (mod 2^61-1).
	r := (lo & hashPrime) + (lo >> 61) + ((hi << 3) & hashPrime) + (hi >> 58)
	for r >= hashPrime {
		r -= hashPrime
	}
	return r
}

func foldMersenne(x uint64) uint64 {
	r := (x & hashPrime) + (x >> 61)
	if r >= hashPrime {
		r -= hashPrime
	}
	return r
}

// Slot hashes an arbitrary byte-string name into {0..n-1}.
func (h Hasher) Slot(name []byte) int32 {
	// Fold the name into a single value over GF(p) Horner-style, then
	// apply the affine universal map.
	var acc uint64
	for _, b := range name {
		acc = foldMersenne(mulmod(acc, 257) + uint64(b) + 1)
	}
	v := foldMersenne(mulmod(h.A, acc) + h.B)
	return int32(v % uint64(h.N))
}

// Directory realizes the reduction end to end: it assigns each
// self-chosen name a slot and keeps per-slot buckets, mirroring how a
// TINN dictionary keyed by hashed name stores all colliding full names in
// the same block entry.
type Directory struct {
	Hash    Hasher
	Buckets map[int32][]string
}

// NewDirectory hashes all names into n >= 1 slots. Duplicate full
// names are rejected — the model requires unique self-chosen names.
func NewDirectory(fullNames []string, n int, rng *rand.Rand) (*Directory, error) {
	if n < 1 {
		return nil, fmt.Errorf("names: directory needs at least 1 slot, got %d", n)
	}
	d := &Directory{Hash: NewHasher(n, rng), Buckets: make(map[int32][]string)}
	seen := make(map[string]bool, len(fullNames))
	for _, nm := range fullNames {
		if seen[nm] {
			return nil, fmt.Errorf("names: duplicate self-chosen name %q", nm)
		}
		seen[nm] = true
		slot := d.Hash.Slot([]byte(nm))
		d.Buckets[slot] = append(d.Buckets[slot], nm)
	}
	return d, nil
}

// Bucket returns all full names sharing a slot (the constant-factor
// dictionary blowup).
func (d *Directory) Bucket(slot int32) []string { return d.Buckets[slot] }

// MaxBucket returns the largest bucket size.
func (d *Directory) MaxBucket() int {
	m := 0
	for _, b := range d.Buckets {
		if len(b) > m {
			m = len(b)
		}
	}
	return m
}
