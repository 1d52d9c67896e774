package blocks

import (
	"math/rand"
	"strings"
	"testing"
)

func TestAssignFailsWhenImpossible(t *testing.T) {
	// A boost so small that coverage cannot verify: Assign must give up
	// with a diagnosable error after MaxAttempts, not loop forever.
	space := newSpace(t, 60, 64, 192)
	rng := rand.New(rand.NewSource(61))
	_, err := Assign(space, 2, rng, Config{Boost: 0.0001, MaxAttempts: 3})
	// Own blocks alone occasionally cover tiny instances; accept either
	// outcome but require the failure message to be informative when it
	// fails.
	if err != nil && !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("uninformative failure: %v", err)
	}
}

func TestAssignDefaultsApplied(t *testing.T) {
	space := newSpace(t, 62, 25, 75)
	rng := rand.New(rand.NewSource(63))
	a, err := Assign(space, 2, rng, Config{}) // zero config: defaults
	if err != nil {
		t.Fatal(err)
	}
	if a.maxSetSize() < 1 {
		t.Fatal("empty sets under defaults")
	}
}

func TestHoldsNegativeCases(t *testing.T) {
	space := newSpace(t, 64, 16, 48)
	rng := rand.New(rand.NewSource(65))
	a, err := Assign(space, 2, rng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A prefix value beyond the realizable range is held by nobody.
	for v := 0; v < 16; v++ {
		if a.holds(int32(v), 1, 9999) {
			t.Fatalf("node %d claims to hold impossible prefix", v)
		}
		if a.holdsBlock(int32(v), 9999) {
			t.Fatalf("node %d claims to hold impossible block", v)
		}
	}
}

func TestAvgSetSizeBounds(t *testing.T) {
	space := newSpace(t, 66, 49, 150)
	rng := rand.New(rand.NewSource(67))
	a, err := Assign(space, 2, rng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	avg := a.avgSetSize()
	if avg < 1 || avg > float64(a.U.NumBlocks()) {
		t.Fatalf("avg set size %.2f outside [1, %d]", avg, a.U.NumBlocks())
	}
	if float64(a.maxSetSize()) < avg {
		t.Fatalf("max %d below avg %.2f", a.maxSetSize(), avg)
	}
}

func TestUniverseSingleNode(t *testing.T) {
	u := NewUniverse(1, 2)
	if u.Q != 1 || u.NumBlocks() != 1 {
		t.Fatalf("singleton universe wrong: q=%d blocks=%d", u.Q, u.NumBlocks())
	}
	if u.BlockOf(0) != 0 || u.Prefix(0, 1) != 0 {
		t.Fatal("singleton coding wrong")
	}
}
