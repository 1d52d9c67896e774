// Package sim is the packet-level simulation fabric: it delivers packets
// by repeatedly invoking a scheme's local forwarding function and
// resolving the returned port over the graph — exactly the network's role
// in §1.1.1. The engine enforces the model's disciplines: forwarding sees
// only (node, header), port resolution is the fabric's job, hop budgets
// catch routing loops, and header growth is recorded so tests can assert
// the O(log^2 n)-bit bound.
//
// Two runners share one forwarding loop: Run records the full per-hop
// path (tracing, replay verification), Fly records only aggregates (the
// traffic engine's hot path). Both drive the same Forwarder contract, so
// a scheme certified for one is certified for the other.
package sim

import (
	"errors"
	"fmt"

	"rtroute/internal/graph"
)

// ErrUnroutable is the sentinel for roundtrips that hit an
// administratively down link (weight >= graph.DownWeight) before the
// scheme maintainers caught up with the topology event. The forwarding
// loops fail the packet immediately and typed — never traverse the dead
// link, never hang — so the traffic plane can count it as a churn drop
// and retry after repair. Match with errors.Is.
var ErrUnroutable = errors.New("route crosses a down link")

// UnroutableError records where a packet died on a down link. It unwraps
// to ErrUnroutable.
type UnroutableError struct {
	At   graph.NodeID // node holding the stale route
	To   graph.NodeID // unreachable neighbor across the down link
	Hops int          // hops flown before hitting the dead link
}

func (e *UnroutableError) Error() string {
	return fmt.Sprintf("sim: unroutable at node %d: link to %d is down (hop %d)", e.At, e.To, e.Hops)
}

func (e *UnroutableError) Unwrap() error { return ErrUnroutable }

// Header is the mutable packet header a scheme reads and rewrites at each
// node (TINN schemes require writable headers, §1.1.4).
type Header interface {
	// Words reports the current header size in machine words.
	Words() int
}

// FixedSizeHeader is an optional Header extension for headers whose
// Words() cannot change while a leg is in flight (BeginReturn and
// ResetHeader may still resize it between legs). The runners sample
// Words once per leg for such headers instead of once per hop.
type FixedSizeHeader interface {
	Header
	// FixedWords reports whether the header's size is leg-invariant.
	FixedWords() bool
}

// Forwarder is a routing scheme's local forwarding function
// F(table(x), header(P)) of §1.1.1. Implementations must only consult
// the local table of the given node plus the header.
type Forwarder interface {
	Forward(at graph.NodeID, h Header) (port graph.PortID, delivered bool, err error)
}

// Plane is the compiled forwarding contract shared by the sequential
// tracer and the concurrent traffic engine: a frozen scheme whose tables
// are read-only after construction, plus the header lifecycle needed to
// inject roundtrip packets addressed by NAME. Implementations must be
// safe for concurrent use by any number of goroutines — Forward,
// NewHeader and BeginReturn may only mutate the packet header passed to
// them, never shared table state.
type Plane interface {
	Forwarder
	// NewHeader returns a fresh outbound header for one roundtrip from
	// the node named srcName to the node named dstName.
	NewHeader(srcName, dstName int32) (Header, error)
	// ResetHeader rewrites h — which must have been produced by an
	// earlier NewHeader on the SAME plane — into a fresh outbound header
	// for a new roundtrip, reusing the header's storage. After a
	// successful reset the header is indistinguishable from a
	// NewHeader(srcName, dstName) result, so a worker can serve its whole
	// packet stream with O(1) header allocations.
	ResetHeader(h Header, srcName, dstName int32) error
	// BeginReturn flips a delivered outbound header into the return leg
	// (the acknowledgment that reuses topology learned on the way out).
	BeginReturn(h Header) error
	// NodeOf maps a TINN name to its topological node index.
	NodeOf(name int32) graph.NodeID
	// Graph returns the network fabric the plane forwards over.
	Graph() *graph.Graph
}

// Trace records one packet's journey hop by hop.
type Trace struct {
	Path           []graph.NodeID
	Weight         graph.Dist
	Hops           int
	MaxHeaderWords int
}

// Flight is the compact per-leg record of the allocation-lean runner: the
// same aggregates as a Trace without the per-hop path.
type Flight struct {
	Weight         graph.Dist
	Hops           int
	MaxHeaderWords int
	// Last is the node the packet was delivered at.
	Last graph.NodeID
}

// Run injects a packet with header h at src and forwards it until the
// scheme reports delivery, the hop budget is exhausted, or forwarding
// fails. maxHops <= 0 selects the default budget of 4n hops.
func Run(g *graph.Graph, f Forwarder, src graph.NodeID, h Header, maxHops int) (*Trace, error) {
	path := []graph.NodeID{src}
	fl, err := fly(g, f, src, h, maxHops, &path)
	if err != nil {
		return nil, err
	}
	return &Trace{Path: path, Weight: fl.Weight, Hops: fl.Hops, MaxHeaderWords: fl.MaxHeaderWords}, nil
}

// Fly is the hot-path runner: identical forwarding semantics to Run, but
// it records only the Flight aggregates — no per-hop path, no per-packet
// slice growth.
func Fly(g *graph.Graph, f Forwarder, src graph.NodeID, h Header, maxHops int) (Flight, error) {
	return fly(g, f, src, h, maxHops, nil)
}

// fly is the single forwarding loop behind Run and Fly. When path is
// non-nil every visited node is appended to it.
//
// Per-hop discipline: the port table is hoisted once per leg (no per-hop
// index loads), a failed Forward is reported before the header is read
// again (a failing scheme may leave the header in an invalid state), and
// fixed-size headers are measured once per leg instead of once per hop.
func fly(g *graph.Graph, f Forwarder, src graph.NodeID, h Header, maxHops int, path *[]graph.NodeID) (Flight, error) {
	if maxHops <= 0 {
		maxHops = 4 * g.N()
	}
	ports := g.PortTable()
	fl := Flight{Last: src, MaxHeaderWords: h.Words()}
	fixed := false
	if fs, ok := h.(FixedSizeHeader); ok {
		fixed = fs.FixedWords()
	}
	cur := src
	for {
		port, delivered, err := f.Forward(cur, h)
		if err != nil {
			return fl, fmt.Errorf("sim: forwarding at node %d (hop %d): %w", cur, fl.Hops, err)
		}
		if !fixed {
			if w := h.Words(); w > fl.MaxHeaderWords {
				fl.MaxHeaderWords = w
			}
		}
		if delivered {
			return fl, nil
		}
		e, ok := ports.EdgeByPort(cur, port)
		if !ok {
			return fl, fmt.Errorf("sim: node %d has no out-port %d", cur, port)
		}
		if e.Weight >= graph.DownWeight {
			return fl, &UnroutableError{At: cur, To: e.To, Hops: fl.Hops}
		}
		fl.Weight += e.Weight
		cur = e.To
		fl.Last = cur
		if path != nil {
			*path = append(*path, cur)
		}
		if fl.Hops++; fl.Hops > maxHops {
			if path != nil {
				return fl, fmt.Errorf("sim: hop budget %d exhausted (likely routing loop); path tail %v",
					maxHops, tail(*path, 8))
			}
			return fl, fmt.Errorf("sim: hop budget %d exhausted (likely routing loop) at node %d", maxHops, cur)
		}
	}
}

// SegmentRunner advances legs of packet flights across the slice of the
// fabric its owner serves. One segment (Fly) starts at fl.Last, forwards
// while own(current node) holds and stops — without invoking the foreign
// node's forwarding function — as soon as the packet crosses onto a node
// the owner does not serve (delivered=false, fl.Last is that node), or
// when the scheme reports delivery (delivered=true). A leg is a chain of
// segments, one per shard visited, and the chain's accounting is
// hop-for-hop identical to one fly loop because fl carries the leg's
// running totals between segments.
//
// The caller owns the leg lifecycle: initialize fl = Flight{Last: src,
// MaxHeaderWords: h.Words()} when the leg starts, and carry fl (plus the
// wire-encoded header) across segment boundaries.
//
// The port table, the ownership predicate and the resolved hop budget
// are hoisted into the runner: a cluster shard drives every segment of
// every packet through one, so the crossing path pays no per-segment
// closure construction or table lookup. The runner is read-only after
// construction.
type SegmentRunner struct {
	f       Forwarder
	ports   graph.PortTable
	own     func(graph.NodeID) bool
	maxHops int
}

// NewSegmentRunner builds a runner over the caller's slice of the
// fabric. maxHops bounds each whole leg (<= 0 selects the default 4n
// budget). own must be safe for concurrent use.
func NewSegmentRunner(g *graph.Graph, f Forwarder, maxHops int, own func(graph.NodeID) bool) *SegmentRunner {
	if maxHops <= 0 {
		maxHops = 4 * g.N()
	}
	return &SegmentRunner{f: f, ports: g.PortTable(), own: own, maxHops: maxHops}
}

// Fly advances one segment.
func (r *SegmentRunner) Fly(h Header, fl *Flight) (delivered bool, err error) {
	return r.FlyHooked(h, fl, nil)
}

// HopHook observes one forwarded hop of a traced packet: the node
// arrived at, the leg's running hop count, and the leg weight so far.
// Hooks run inline on the forwarding path, so implementations must be
// cheap and allocation-free; the telemetry flight recorder is the
// intended consumer.
type HopHook func(at graph.NodeID, hops int, weight graph.Dist)

// FlyHooked advances one segment exactly as Fly does, invoking hook,
// when non-nil, after every forwarded hop; the cluster engine passes one
// only for roundtrips armed by the trace sampler.
func (r *SegmentRunner) FlyHooked(h Header, fl *Flight, hook HopHook) (delivered bool, err error) {
	fixed := false
	if fs, ok := h.(FixedSizeHeader); ok {
		fixed = fs.FixedWords()
	}
	cur := fl.Last
	for {
		if !r.own(cur) {
			return false, nil
		}
		port, delivered, err := r.f.Forward(cur, h)
		if err != nil {
			return false, fmt.Errorf("sim: forwarding at node %d (hop %d): %w", cur, fl.Hops, err)
		}
		if !fixed {
			if w := h.Words(); w > fl.MaxHeaderWords {
				fl.MaxHeaderWords = w
			}
		}
		if delivered {
			return true, nil
		}
		e, ok := r.ports.EdgeByPort(cur, port)
		if !ok {
			return false, fmt.Errorf("sim: node %d has no out-port %d", cur, port)
		}
		if e.Weight >= graph.DownWeight {
			return false, &UnroutableError{At: cur, To: e.To, Hops: fl.Hops}
		}
		fl.Weight += e.Weight
		cur = e.To
		fl.Last = cur
		if fl.Hops++; fl.Hops > r.maxHops {
			return false, fmt.Errorf("sim: hop budget %d exhausted (likely routing loop) at node %d", r.maxHops, cur)
		}
		if hook != nil {
			hook(cur, fl.Hops, fl.Weight)
		}
	}
}

func tail(p []graph.NodeID, k int) []graph.NodeID {
	if len(p) <= k {
		return p
	}
	return p[len(p)-k:]
}

// Roundtrip routes one roundtrip srcName -> dstName -> srcName over the
// plane, recording full per-hop traces for both legs and validating the
// delivery nodes. This is the single roundtrip path the schemes' own
// Roundtrip methods and the replay-verification tests go through.
func Roundtrip(p Plane, srcName, dstName int32, maxHops int) (*RoundtripTrace, error) {
	h, err := p.NewHeader(srcName, dstName)
	if err != nil {
		return nil, fmt.Errorf("sim: header %d->%d: %w", srcName, dstName, err)
	}
	src, dst := p.NodeOf(srcName), p.NodeOf(dstName)
	out, err := Run(p.Graph(), p, src, h, maxHops)
	if err != nil {
		return nil, fmt.Errorf("sim: outbound %d->%d: %w", srcName, dstName, err)
	}
	if last := out.Path[len(out.Path)-1]; last != dst {
		return nil, fmt.Errorf("sim: outbound %d->%d delivered at wrong node %d", srcName, dstName, last)
	}
	if err := p.BeginReturn(h); err != nil {
		return nil, fmt.Errorf("sim: return header %d->%d: %w", srcName, dstName, err)
	}
	back, err := Run(p.Graph(), p, dst, h, maxHops)
	if err != nil {
		return nil, fmt.Errorf("sim: return %d->%d: %w", dstName, srcName, err)
	}
	if last := back.Path[len(back.Path)-1]; last != src {
		return nil, fmt.Errorf("sim: return %d->%d delivered at wrong node %d", dstName, srcName, last)
	}
	return &RoundtripTrace{Out: out, Back: back}, nil
}

// RoundtripFlight is the allocation-lean roundtrip used on the traffic
// engine's hot path: same forwarding and delivery validation as
// Roundtrip, but no per-hop paths are recorded. Each call allocates a
// fresh header; streams of roundtrips should use RoundtripFlightReusing.
func RoundtripFlight(p Plane, srcName, dstName int32, maxHops int) (out, back Flight, err error) {
	out, back, _, err = RoundtripFlightReusing(p, nil, srcName, dstName, maxHops)
	return out, back, err
}

// RoundtripFlightReusing is RoundtripFlight with the header-reuse
// contract: pass h == nil on a worker's first roundtrip and the returned
// header on every subsequent one, so the whole stream costs O(1) header
// allocations. The header must only be reused against the plane that
// created it.
func RoundtripFlightReusing(p Plane, h Header, srcName, dstName int32, maxHops int) (out, back Flight, hdr Header, err error) {
	if h == nil {
		if h, err = p.NewHeader(srcName, dstName); err != nil {
			return out, back, nil, fmt.Errorf("sim: header %d->%d: %w", srcName, dstName, err)
		}
	} else if err = p.ResetHeader(h, srcName, dstName); err != nil {
		return out, back, h, fmt.Errorf("sim: header %d->%d: %w", srcName, dstName, err)
	}
	g := p.Graph()
	src, dst := p.NodeOf(srcName), p.NodeOf(dstName)
	out, err = Fly(g, p, src, h, maxHops)
	if err != nil {
		return out, back, h, fmt.Errorf("sim: outbound %d->%d: %w", srcName, dstName, err)
	}
	if out.Last != dst {
		return out, back, h, fmt.Errorf("sim: outbound %d->%d delivered at wrong node %d", srcName, dstName, out.Last)
	}
	if err = p.BeginReturn(h); err != nil {
		return out, back, h, fmt.Errorf("sim: return header %d->%d: %w", srcName, dstName, err)
	}
	back, err = Fly(g, p, dst, h, maxHops)
	if err != nil {
		return out, back, h, fmt.Errorf("sim: return %d->%d: %w", dstName, srcName, err)
	}
	if back.Last != src {
		return out, back, h, fmt.Errorf("sim: return %d->%d delivered at wrong node %d", dstName, srcName, back.Last)
	}
	return out, back, h, nil
}

// RoundtripTrace aggregates the outbound and return legs of a roundtrip.
type RoundtripTrace struct {
	Out, Back *Trace
}

// Weight returns the total roundtrip weight.
func (rt *RoundtripTrace) Weight() graph.Dist { return rt.Out.Weight + rt.Back.Weight }

// Hops returns the total roundtrip hop count.
func (rt *RoundtripTrace) Hops() int { return rt.Out.Hops + rt.Back.Hops }

// MaxHeaderWords returns the peak header size over both legs.
func (rt *RoundtripTrace) MaxHeaderWords() int {
	if rt.Out.MaxHeaderWords > rt.Back.MaxHeaderWords {
		return rt.Out.MaxHeaderWords
	}
	return rt.Back.MaxHeaderWords
}
