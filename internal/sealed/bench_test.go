package sealed

import (
	"math/rand"
	"testing"
)

// BenchmarkGet times one lookup in a table of 64 Ki int32 values (the
// width of a port, 512 KiB of slots) with a pre-drawn stream of random
// stored keys, so consecutive lookups share no cache line. Run it with
//
//	go test ./internal/sealed -run '^$' -bench Get
func BenchmarkGet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int32, 1<<16)
	for i, k := range rng.Perm(1 << 20)[:len(keys)] {
		keys[i] = int32(k)
	}
	tab := CompileFunc(len(keys), func(i int) int32 { return keys[i] }, func(i int) int32 { return int32(i) })
	stream := make([]int32, len(keys))
	for i := range stream {
		stream[i] = keys[rng.Intn(len(keys))]
	}
	i := 0
	for b.Loop() {
		if _, ok := tab.Get(stream[i&(len(stream)-1)]); !ok {
			b.Fatal("stored key missed")
		}
		i++
	}
}
