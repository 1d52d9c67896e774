package churn

import (
	"math"
	"sort"
)

// DamperConfig tunes the flap damper. The shape follows BGP route-flap
// damping (RFC 2439): each flap adds a fixed penalty, the penalty decays
// exponentially with a configured half-life, a link whose penalty crosses
// the suppress threshold is quarantined, and it is released once decay
// brings the penalty under the reuse threshold.
type DamperConfig struct {
	Penalty  float64 // added per flap (default 1000)
	Suppress float64 // quarantine above this (default 2000)
	Reuse    float64 // release below this (default 750)
	HalfLife float64 // penalty half-life in event-time seconds (default 15)
}

func (c *DamperConfig) fill() {
	if c.Penalty <= 0 {
		c.Penalty = 1000
	}
	if c.Suppress <= 0 {
		c.Suppress = 2000
	}
	if c.Reuse <= 0 {
		c.Reuse = 750
	}
	if c.HalfLife <= 0 {
		c.HalfLife = 15
	}
}

type linkDamp struct {
	penalty    float64
	at         float64 // event time the penalty was last decayed to
	suppressed bool
}

// Damper is the per-link penalty/suppress/reuse state machine. It is
// clocked purely by event time, so a churn run replays identically from
// its seed regardless of wall-clock speed. It is not safe for concurrent
// use; the churn plane drives it from the (single) event-application
// goroutine.
type Damper struct {
	cfg   DamperConfig
	links map[linkID]*linkDamp
}

// NewDamper creates a flap damper; zero-value fields of cfg take the
// RFC-flavored defaults.
func NewDamper(cfg DamperConfig) *Damper {
	cfg.fill()
	return &Damper{cfg: cfg, links: make(map[linkID]*linkDamp)}
}

func (d *Damper) decay(l *linkDamp, at float64) {
	if at > l.at {
		l.penalty *= math.Exp2(-(at - l.at) / d.cfg.HalfLife)
		l.at = at
	}
}

// Flap records one flap of (u, v) at the given event time and reports
// whether the link is now suppressed.
func (d *Damper) Flap(u, v int32, at float64) bool {
	key := linkID{u, v}
	l := d.links[key]
	if l == nil {
		l = &linkDamp{at: at}
		d.links[key] = l
	}
	d.decay(l, at)
	l.penalty += d.cfg.Penalty
	if l.penalty >= d.cfg.Suppress {
		l.suppressed = true
	}
	return l.suppressed
}

// Suppressed reports whether (u, v) is quarantined at the given event
// time, applying decay (and release, if decay crossed the reuse
// threshold) first.
func (d *Damper) Suppressed(u, v int32, at float64) bool {
	l := d.links[linkID{u, v}]
	if l == nil {
		return false
	}
	d.decay(l, at)
	if l.suppressed && l.penalty <= d.cfg.Reuse {
		l.suppressed = false
	}
	return l.suppressed
}

// Advance decays every link to event time at and returns the links whose
// suppression released, in sorted order (replay determinism). Links whose
// penalty decayed to noise are forgotten.
func (d *Damper) Advance(at float64) []linkID {
	var released []linkID
	for key, l := range d.links {
		d.decay(l, at)
		if l.suppressed && l.penalty <= d.cfg.Reuse {
			l.suppressed = false
			released = append(released, key)
		}
		if !l.suppressed && l.penalty < 1 {
			delete(d.links, key)
		}
	}
	sort.Slice(released, func(i, j int) bool {
		if released[i].U != released[j].U {
			return released[i].U < released[j].U
		}
		return released[i].V < released[j].V
	})
	return released
}
