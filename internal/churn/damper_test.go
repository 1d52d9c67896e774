package churn

import (
	"math"
	"testing"
)

// TestDamperStateMachine walks one link through the full penalty
// lifecycle: below suppression after one flap, quarantined after the
// threshold crossing, held while the penalty stays above reuse, and
// released by decay — with the release also reported by Advance.
func TestDamperStateMachine(t *testing.T) {
	d := NewDamper(DamperConfig{})
	cfg := d.Config()

	if d.Flap(1, 2, 0) {
		t.Fatal("suppressed after a single flap (penalty 1000 < suppress 2000)")
	}
	if d.Suppressed(1, 2, 0) {
		t.Fatal("Suppressed reports quarantine after a single flap")
	}
	if !d.Flap(1, 2, 0) {
		t.Fatal("not suppressed after the second flap crossed the threshold")
	}
	if !d.Suppressed(1, 2, 0) {
		t.Fatal("Suppressed disagrees with Flap's quarantine report")
	}
	if got := d.SuppressedCount(); got != 1 {
		t.Fatalf("SuppressedCount = %d, want 1", got)
	}

	// Penalty 2*Penalty at t=0; solve for the time decay crosses Reuse
	// and check both sides of the boundary.
	release := cfg.HalfLife * math.Log2(2*cfg.Penalty/cfg.Reuse)
	if !d.Suppressed(1, 2, release-1) {
		t.Fatalf("released early: penalty at t=%.2f already under reuse", release-1)
	}
	if d.Suppressed(1, 2, release+1) {
		t.Fatalf("still suppressed at t=%.2f, past the reuse crossing %.2f", release+1, release)
	}

	// A suppressed link releases via Advance too, reported in order.
	d.Flap(3, 4, 100)
	if !d.Flap(3, 4, 100) {
		t.Fatal("link (3,4) not suppressed after two instant flaps")
	}
	rel := d.Advance(100 + 10*cfg.HalfLife)
	if len(rel) != 1 || rel[0] != (linkID{3, 4}) {
		t.Fatalf("Advance released %v, want [(3,4)]", rel)
	}
	if d.SuppressedCount() != 0 {
		t.Fatalf("SuppressedCount = %d after release, want 0", d.SuppressedCount())
	}
}

// TestDamperForgetsQuietLinks locks the map cleanup: a link whose
// penalty decays to noise is dropped, so a long run's damper state is
// bounded by the recently flapping links, not every link that ever
// flapped.
func TestDamperForgetsQuietLinks(t *testing.T) {
	d := NewDamper(DamperConfig{})
	d.Flap(1, 2, 0)
	d.Advance(20 * d.Config().HalfLife)
	if len(d.links) != 0 {
		t.Fatalf("damper still tracks %d links after full decay, want 0", len(d.links))
	}
}

// Config returns the effective (default-filled) configuration.
func (d *Damper) Config() DamperConfig { return d.cfg }

// SuppressedCount returns the number of currently quarantined links
// (without advancing time).
func (d *Damper) SuppressedCount() int {
	c := 0
	for _, l := range d.links {
		if l.suppressed {
			c++
		}
	}
	return c
}
