package names

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPermutationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []*Permutation{Identity(20), Random(20, rng), Reversed(20)} {
		if p.N() != 20 {
			t.Fatalf("N = %d, want 20", p.N())
		}
		for v := int32(0); v < 20; v++ {
			if p.Node(p.Name(v)) != v {
				t.Fatalf("Node(Name(%d)) = %d", v, p.Node(p.Name(v)))
			}
		}
	}
}

func TestNewPermutationValidation(t *testing.T) {
	if _, err := NewPermutation([]int32{0, 2, 1}); err != nil {
		t.Fatalf("valid permutation rejected: %v", err)
	}
	if _, err := NewPermutation([]int32{0, 0, 1}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := NewPermutation([]int32{0, 3, 1}); err == nil {
		t.Fatal("out-of-range name accepted")
	}
	if _, err := NewPermutation([]int32{0, -1, 1}); err == nil {
		t.Fatal("negative name accepted")
	}
}

func TestReversedIsAdversarial(t *testing.T) {
	p := Reversed(5)
	for v := int32(0); v < 5; v++ {
		if p.Name(v) != 4-v {
			t.Fatalf("Reversed(5).Name(%d) = %d, want %d", v, p.Name(v), 4-v)
		}
	}
}

func TestHasherDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewHasher(100, rng)
	a := h.Slot([]byte("node-alpha"))
	b := h.Slot([]byte("node-alpha"))
	if a != b {
		t.Fatalf("same name hashed to %d and %d", a, b)
	}
	if a < 0 || int(a) >= 100 {
		t.Fatalf("slot %d out of range", a)
	}
}

func TestHasherDistinguishesNames(t *testing.T) {
	// Hash 1000 names into 1024 slots: we expect many distinct slots;
	// a broken fold (e.g. ignoring bytes) would collapse them.
	rng := rand.New(rand.NewSource(3))
	h := NewHasher(1024, rng)
	slots := map[int32]bool{}
	for i := 0; i < 1000; i++ {
		slots[h.Slot([]byte(fmt.Sprintf("peer-%d", i)))] = true
	}
	if len(slots) < 500 {
		t.Fatalf("only %d distinct slots for 1000 names", len(slots))
	}
}

func TestHasherOrderSensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := NewHasher(1<<20, rng)
	if h.Slot([]byte("ab")) == h.Slot([]byte("ba")) {
		t.Fatal("hash ignores byte order (likely, not certain — change seed if flaky)")
	}
	if h.Slot([]byte("a")) == h.Slot([]byte("a\x00")) {
		t.Fatal("hash ignores trailing zero byte")
	}
}

func TestMulmodAgainstBigIntSemantics(t *testing.T) {
	// Verify mulmod against the naive algorithm on small operands where
	// direct 64-bit multiplication cannot overflow.
	err := quick.Check(func(a, b uint32) bool {
		x, y := uint64(a), uint64(b)
		return mulmod(x, y) == (x*y)%hashPrime
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
	// Known big-operand identities: (p-1)*(p-1) mod p = 1.
	pm1 := uint64(hashPrime - 1)
	if got := mulmod(pm1, pm1); got != 1 {
		t.Fatalf("(p-1)^2 mod p = %d, want 1", got)
	}
	if got := mulmod(hashPrime, 12345); got != 0 {
		t.Fatalf("p * x mod p = %d, want 0", got)
	}
}

func TestDirectoryBucketLoad(t *testing.T) {
	// The reduction's promise: hashing m self-chosen names into n = m
	// slots keeps the maximum bucket O(log n / log log n) w.h.p. and the
	// AVERAGE load constant. Assert a generous max-bucket ceiling.
	rng := rand.New(rand.NewSource(5))
	n := 2048
	fullNames := make([]string, n)
	for i := range fullNames {
		fullNames[i] = fmt.Sprintf("peer-%08x-%d", rng.Uint32(), i)
	}
	d, err := NewDirectory(fullNames, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxBucket() > 12 {
		t.Fatalf("max bucket %d implausibly large for %d names in %d slots", d.MaxBucket(), n, n)
	}
	// Every name must land in the bucket of its slot.
	for _, nm := range fullNames {
		slot := d.Hash.Slot([]byte(nm))
		found := false
		for _, b := range d.Bucket(slot) {
			if b == nm {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("name %q missing from its bucket", nm)
		}
	}
}

func TestDirectoryRejectsDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := NewDirectory([]string{"a", "b", "a"}, 10, rng); err == nil {
		t.Fatal("duplicate self-chosen names accepted")
	}
}

// TestDirectoryRejectsNoSlots: with n = 0 the hash's modulus would
// divide by zero, and with n < 0 names would land in negative slots.
func TestDirectoryRejectsNoSlots(t *testing.T) {
	for _, n := range []int{0, -1} {
		if d, err := NewDirectory([]string{"a", "b"}, n, rand.New(rand.NewSource(7))); err == nil {
			t.Fatalf("n = %d accepted, buckets %v", n, d.Buckets)
		}
	}
}

func TestFoldMersenne(t *testing.T) {
	if foldMersenne(hashPrime) != 0 {
		t.Fatal("fold(p) != 0")
	}
	if foldMersenne(hashPrime-1) != hashPrime-1 {
		t.Fatal("fold(p-1) changed")
	}
	if foldMersenne(hashPrime+5) != 5 {
		t.Fatal("fold(p+5) != 5")
	}
}

func TestUmul128KnownValues(t *testing.T) {
	hi, lo := umul128(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Fatalf("2^32 * 2^32 = (%d, %d), want (1, 0)", hi, lo)
	}
	hi, lo = umul128(0xffffffffffffffff, 2)
	if hi != 1 || lo != 0xfffffffffffffffe {
		t.Fatalf("max*2 = (%d, %#x)", hi, lo)
	}
	hi, lo = umul128(12345, 6789)
	if hi != 0 || lo != 12345*6789 {
		t.Fatalf("small product wrong: (%d,%d)", hi, lo)
	}
}
