package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rtroute/internal/churn"
	"rtroute/internal/core"
	"rtroute/internal/eval"
	"rtroute/internal/graph"
	"rtroute/internal/sim"
	"rtroute/internal/telemetry"
	"rtroute/internal/traffic"
	"rtroute/internal/wire"
)

// ShardStats is one shard's serving record, shaped like the traffic
// engine's per-worker stats so cluster and single-process reports read
// line for line: Packets/Hops/Weight count the roundtrips *completed*
// at this shard (a roundtrip completes where its source lives), while
// FramesIn/FramesOut count the flight frames this shard exchanged with
// other shards — the cross-boundary traffic the placement policies
// compete on.
type ShardStats struct {
	Shard   int
	Nodes   int
	Packets int64
	Hops    int64
	Weight  int64
	// FramesIn / FramesOut are flight frames received from / shipped to
	// other shards (injects and completion reports excluded).
	FramesIn  int64
	FramesOut int64
	// Errors counts malformed or undeliverable frames dropped in
	// non-strict (daemon) mode.
	Errors int64
	// Drops / Misroutes count roundtrips lost while the shard converged
	// under churn (Options.Repair armed): a typed unroutable failure —
	// the packet hit an administratively down edge — versus any other
	// forwarding casualty of momentarily stale tables (wrong-node
	// delivery, hop-budget exhaustion, a vanished out-port). Both are
	// accounted completions: the issuer gets a FrameDrop (or OnLost
	// call), never a hang.
	Drops     int64
	Misroutes int64
	// Allocs counts tracked allocation events at the shard's known
	// allocation sites — frame-pool misses (a buffer or a batch slice),
	// sample growth, the once-per-shard inject header. Per-shard and
	// attributable, unlike a whole-process ReadMemStats delta; the
	// build-tag alloc gate keeps a process-wide measurement as the
	// backstop for sites this ledger does not know about.
	Allocs int64
}

// replyQueue is one accepted connection's unflushed reply frames.
type replyQueue struct {
	conn   uint64
	frames []InFrame
}

// publish hands the probe a copy of the shard's counters at a batch
// boundary — the reader-visible state /metrics and Snapshot merge, by
// construction field-for-field identical to the end-of-run ShardStats.
func (s *Shard) publish() {
	if s.p == nil {
		return
	}
	s.p.Publish(telemetry.Counters{
		Packets: s.stats.Packets, Hops: s.stats.Hops, Weight: s.stats.Weight,
		FramesIn: s.stats.FramesIn, FramesOut: s.stats.FramesOut,
		Errors: s.stats.Errors, Allocs: s.stats.Allocs,
	})
}

// queue appends an outbound frame to an accumulation, starting it on a
// slice from the hand (cut at full batch capacity on a miss), and
// reports whether it reached the batch bound.
func (s *Shard) queue(q *[]InFrame, data []byte, batch int) bool {
	if *q == nil {
		if *q = take(&s.hand, &s.hand.slabs, batch); *q == nil {
			s.stats.Allocs++
			*q = make([]InFrame, 0, max(batch, tcpBatch))
		}
	}
	*q = append(*q, InFrame{Data: data})
	return len(*q) >= batch
}

// outBuf returns an empty buffer for an outbound frame, cutting one on
// a miss.
func (s *Shard) outBuf() []byte {
	if b := take(&s.hand, &s.hand.bufs, s.sizeHint); b != nil {
		return b
	}
	s.stats.Allocs++
	return make([]byte, 0, frameCap(s.sizeHint))
}

// Options tunes a Shard.
type Options struct {
	// Workers must be 0 or 1: a shard serves on the one goroutine that
	// calls Serve, which refuses a larger value.
	//
	// Deprecated: a shard has no worker pool; leave it unset.
	Workers int
	// Batch bounds how many outbound frames the shard accumulates per
	// destination shard before an early flush (default 64). Received
	// batch sizes are whatever the senders accumulated.
	Batch int
	// Strict stops the shard on any error (the in-process engine's
	// mode, where an error means a broken invariant). Non-strict mode
	// — the network daemon's — drops the offending frame, counts it,
	// and keeps serving: a hostile client frame must not take the
	// shard down.
	Strict bool
	// OnDone, when non-nil, observes every roundtrip completed with
	// Home == HomeLocal (the in-process engine's completion hook).
	OnDone func(*wire.Frame)
	// Sink, when non-nil, attaches the telemetry plane; SinkShard is
	// this shard's row in the sink's Config.Shards (the in-process
	// engine passes the shard index, a daemon passes 0 for its
	// single-shard sink).
	Sink      *telemetry.Sink
	SinkShard int
	// Repair, when non-nil, arms the shard's churn plane: FrameChurn
	// batches are accepted off the fabric, ordered by sequence number,
	// and applied between two received batches — the callback mutates
	// this shard's graph replica and rebuilds the owned slice of its
	// tables on the serving goroutine, so nothing routes while it runs,
	// and roundtrips in flight elsewhere resume on the new epoch's
	// routes. It also switches serving to lossy mode: forwarding
	// failures that strict mode treats as broken invariants become
	// accounted drops (see ShardStats.Drops/Misroutes), because under
	// convergence they are expected casualties, not bugs. A Repair error
	// poisons the shard — Serve returns it even in daemon mode, since a
	// shard that half-applied a batch must never serve.
	Repair func(seq uint64, events []churn.Event) error
	// OnRepaired, when non-nil, observes each applied batch in sequence
	// order (the in-process driver's ack). When nil and the batch
	// arrived on an accepted client connection, the shard acknowledges
	// by echoing an empty batch with the same sequence number.
	OnRepaired func(seq uint64)
	// OnLost observes lossy completions whose Home is HomeLocal, with
	// the wire drop reason (DropUnroutable / DropMisroute); remote homes
	// get a FrameDrop instead.
	OnLost func(f *wire.Frame, reason byte)
}

// Shard is one serving process of a cluster: the ShardView holding its
// nodes' tables, the placement that says who owns everything else, and
// a transport to ship boundary-crossing packets as wire frames. The
// same Shard runs under the in-process engine (Run) and the network
// daemon (Serve); only the transport differs. A shard is one sequential
// actor: everything it does happens on the goroutine running Serve.
type Shard struct {
	view  *core.ShardView
	place *Placement
	tr    Transport
	opts  Options
	info  wire.Frame

	// The serving loop's counters, histograms, samples and scratch,
	// touched only by the goroutine running Serve.
	stats   ShardStats
	hopHist eval.Hist
	hdrHist eval.Hist
	samples []traffic.Sample
	frame   wire.Frame
	// hdec decodes arriving packet headers into reusable storage; a
	// decoded header lives only for the one advance() call, so one
	// scratch suffices.
	hdec wire.HeaderDecoder
	// injectHdr is the reusable injection header (ResetHeader per
	// roundtrip, the traffic engine's allocation discipline).
	injectHdr sim.Header
	// sizeHint right-sizes outbound frame buffers from the sizes seen
	// so far.
	sizeHint int
	// pending accumulates outbound frames per destination shard while a
	// received batch is processed; flush ships each destination's
	// accumulation as one transport message.
	pending [][]InFrame
	// replies is the same accumulation toward accepted client
	// connections: completion, drop and info reports queue per
	// connection and flush writes each queue as one transport message.
	// A batch answers few connections, so the queues are a short list
	// searched linearly, reused from batch to batch.
	replies []replyQueue
	// hand is what the loop holds of the transport's frame pool
	// within one batch: outbound buffers and pending slices come from
	// it, the batch's dead buffers and processed slices go back into it
	// for reuse, and all of it returns to the pool before the flush.
	hand hand
	// p is the shard's telemetry probe (nil = telemetry off; every
	// probe method is a nil-receiver no-op).
	p *telemetry.Probe
	// hook records per-hop trace events for roundtrips armed by the
	// trace sampler; trRt/trRet carry the roundtrip tag and leg into
	// the hook without a per-hop closure allocation.
	hook  sim.HopHook
	trRt  uint64
	trRet bool

	// seg is the shard's hoisted segment runner: port table, ownership
	// predicate and hop budget resolved once, not per packet — and
	// rebuilt after each repair, because it caches the graph's port
	// table at construction.
	seg *sim.SegmentRunner

	// armed is set when opts.Repair != nil. pendingC parks churn batches
	// until their turn — the fabric reorders freely — and nextSeq is the
	// next batch to apply; sequence numbers start at 1. A repair runs
	// between two received batches, on the serving goroutine, so it
	// needs no lock: the batch before it has flushed, and the next one
	// routes on the repaired tables.
	armed    bool
	pendingC map[uint64]churnBatch
	nextSeq  uint64

	// Lossy-mode and repair counters, atomics because gauges read them
	// while the shard serves.
	drops       atomic.Int64
	misroutes   atomic.Int64
	repairs     atomic.Int64
	repairNanos atomic.Int64
}

// churnBatch is one decoded churn frame parked for in-order application.
type churnBatch struct {
	seq    uint64
	events []churn.Event
	conn   uint64 // accepted-connection reply token, 0 = none
}

// NewShard assembles one shard over its view, placement and transport.
func NewShard(view *core.ShardView, place *Placement, tr Transport, opts Options) *Shard {
	if opts.Batch < 1 {
		opts.Batch = 64
	}
	s := &Shard{
		view: view, place: place, tr: tr, opts: opts,
		// The segment runner guards every hop with view.Owns before
		// forwarding, so it can call the deployment directly and skip
		// the view's own per-hop ownership re-check.
		seg: sim.NewSegmentRunner(view.Graph(), view.Deployment(), 0, view.Owns),
	}
	if opts.Repair != nil {
		s.armed = true
		s.pendingC = make(map[uint64]churnBatch)
		s.nextSeq = 1
	}
	s.info = wire.Frame{
		Kind:       wire.FrameInfo,
		SchemeKind: view.Deployment().Kind(),
		Nodes:      int32(view.Graph().N()),
		Shards:     int32(place.Shards),
	}
	return s
}

// Index returns the shard's index.
func (s *Shard) Index() int { return s.view.Shard() }

// Stats returns the shard's counters (call after Serve has returned,
// or accept a racy snapshot).
func (s *Shard) Stats() ShardStats {
	out := s.stats
	out.Shard, out.Nodes = s.view.Shard(), s.view.NodeCount()
	out.Drops = s.drops.Load()
	out.Misroutes = s.misroutes.Load()
	return out
}

// ChurnStats returns the shard's churn-plane counters: lossy
// completions by reason, repairs applied, and their total wall time.
// Safe to read while serving (gauges poll it live).
func (s *Shard) ChurnStats() (drops, misroutes, repairs, repairNanos int64) {
	return s.drops.Load(), s.misroutes.Load(), s.repairs.Load(), s.repairNanos.Load()
}

// hists merges the shard's histograms and samples into the caller's.
func (s *Shard) hists(hop, hdr *eval.Hist, samples *[]traffic.Sample) {
	hop.Merge(&s.hopHist)
	hdr.Merge(&s.hdrHist)
	*samples = append(*samples, s.samples...)
}

// Serve pumps the shard's mailbox on the calling goroutine until the
// transport closes, returning nil on a clean shutdown. On any error it
// closes the transport before returning it, so nothing keeps serving
// without the shard. This is the daemon loop rtserve runs and the body
// the in-process fabric spawns per shard.
//
// Each turn blocks for a batch, handles each frame, then flushes
// everything the batch emitted — one transport message per destination
// shard and per answered client connection, the send-side half of the
// batching discipline. Nothing outlives the flush: when the loop
// re-enters Recv every frame it produced is with the transport. Parked
// churn batches are applied after the flush, before the next Recv.
//
// Telemetry rides the same rhythm: each Recv opens a batch on the
// shard's probe (counting it, charging the blocked time to recv-wait,
// and — on sampled batches — arming the Lap chain t that threads
// through every handle and the final flush), and each batch closes with
// a counter publish. An unsampled batch carries t == 0 and every Lap
// passes it through for free.
func (s *Shard) Serve() error {
	err := s.serve()
	if err != nil {
		s.tr.Close()
	}
	return err
}

func (s *Shard) serve() error {
	if s.opts.Workers > 1 {
		return fmt.Errorf("cluster: Options.Workers is %d, but a shard serves on one goroutine (leave it unset)", s.opts.Workers)
	}
	s.pending = make([][]InFrame, s.place.Shards)
	s.hand.pool = s.tr.pool()
	s.p = s.opts.Sink.Probe(s.opts.SinkShard)
	if s.p != nil {
		shard := s.view.Shard()
		s.hook = func(at graph.NodeID, hops int, weight graph.Dist) {
			s.p.Record(telemetry.EvHop, s.trRt, shard, int32(at), -1, int32(hops), s.trRet)
		}
		defer s.publish()
	}
	for {
		wait0 := s.p.Now()
		frames, err := s.tr.Recv()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil
			}
			return err
		}
		t := s.p.BatchStart(wait0)
		// Drain everything immediately available before flushing, so the
		// outbound accumulations grow to the queued work instead of
		// collapsing to singleton batches.
		processed := 0
		for {
			for i := range frames {
				var retained bool
				retained, t, err = s.handle(frames[i], t)
				if err != nil {
					if s.opts.Strict {
						return err
					}
					s.stats.Errors++
				}
				// A clean crossing repatches the received buffer in place
				// and ships those same bytes (retained); any other outcome
				// leaves the buffer dead, free to carry the next outbound
				// frame.
				if retained {
					frames[i].Data = nil
				}
			}
			processed += len(frames)
			s.hand.put(frames)
			clear(frames) // pins no dropped buffer, an oversized one say
			if processed >= 4*s.opts.Batch {
				break
			}
			var ok bool
			if frames, ok, err = s.tr.TryRecv(); err != nil || !ok {
				break
			}
		}
		if err != nil {
			if errors.Is(err, ErrClosed) {
				// Flush is pointless on a closed transport; exit cleanly.
				return nil
			}
			if s.opts.Strict {
				return err
			}
			s.stats.Errors++
		}
		// Everything the batch freed goes back to the pool before the
		// flush writes: nothing the loop holds outlives its batch.
		s.hand.release()
		if _, err := s.flush(t); err != nil && s.opts.Strict && !errors.Is(err, ErrClosed) {
			return err
		}
		s.publish()
		if err := s.applyChurn(); err != nil {
			return err
		}
	}
}

// applyChurn applies the parked churn batches whose turn has come, in
// sequence order. It runs between two received batches, so each repair
// runs alone: the batch before it has flushed and the next routes on
// the repaired tables. A Repair error is returned (and poisons the
// shard) regardless of Strict: serving from a half-applied epoch is
// never an option.
func (s *Shard) applyChurn() error {
	for len(s.pendingC) > 0 {
		b, ok := s.pendingC[s.nextSeq]
		if !ok {
			return nil
		}
		delete(s.pendingC, s.nextSeq)
		start := time.Now()
		if err := s.opts.Repair(b.seq, b.events); err != nil {
			return fmt.Errorf("cluster: shard %d repair of churn batch %d: %w", s.view.Shard(), b.seq, err)
		}
		// The runner cached the pre-repair port table; rebuild it
		// against the mutated graph before anything routes again.
		s.seg = sim.NewSegmentRunner(s.view.Graph(), s.view.Deployment(), 0, s.view.Owns)
		s.repairs.Add(1)
		s.repairNanos.Add(time.Since(start).Nanoseconds())
		s.nextSeq++
		if s.opts.OnRepaired != nil {
			s.opts.OnRepaired(b.seq)
		} else if b.conn != 0 {
			// Ack the injecting client connection: an empty batch echoing
			// the sequence number.
			ack := []InFrame{{Data: wire.AppendChurnFrame(nil, b.seq, nil)}}
			if err := s.tr.ReplyBatch(b.conn, ack); err != nil {
				s.stats.Errors++
			}
		}
	}
	return nil
}

// ship queues one outbound frame, early-flushing a destination that
// reaches the batch bound. t threads the sampled-batch Lap chain so
// an early flush's send rendezvous lands in the send stage, not in
// whatever stage surrounds the caller.
func (s *Shard) ship(to int, data []byte, t int64) (int64, error) {
	if to < 0 || to >= len(s.pending) {
		return t, fmt.Errorf("cluster: frame addressed to unknown shard %d", to)
	}
	if s.queue(&s.pending[to], data, s.opts.Batch) {
		frames := s.pending[to]
		s.pending[to] = nil
		err := s.tr.SendBatch(to, frames)
		return s.p.Lap(telemetry.StageSend, t), err
	}
	return t, nil
}

// reply queues one frame for an accepted client connection, writing
// the connection's queue early when it reaches the batch bound. From
// here on data belongs to the queue and then the transport. A refused
// early write is already counted frame by frame (see writeReplies), so
// only a strict shard hears about it again.
func (s *Shard) reply(conn uint64, data []byte, t int64) (int64, error) {
	var q *replyQueue
	for i := range s.replies {
		if s.replies[i].conn == conn {
			q = &s.replies[i]
			break
		}
	}
	if q == nil {
		s.replies = append(s.replies, replyQueue{conn: conn})
		q = &s.replies[len(s.replies)-1]
	}
	if s.queue(&q.frames, data, s.opts.Batch) {
		var err error
		if t, err = s.writeReplies(q, t); err != nil && s.opts.Strict {
			return t, err
		}
	}
	return t, nil
}

// writeReplies hands one connection's queue to the transport as one
// message. Every frame of a refused write is counted: each is a
// roundtrip whose issuer will not hear of it.
func (s *Shard) writeReplies(q *replyQueue, t int64) (int64, error) {
	frames := q.frames
	q.frames = nil
	err := s.tr.ReplyBatch(q.conn, frames)
	if err != nil {
		s.stats.Errors += int64(len(frames))
	}
	return s.p.Lap(telemetry.StageSend, t), err
}

// flush ships every destination's accumulated frames, then every
// answered connection's. Every frame of a batch a transport refuses is
// counted as dropped — each is a live roundtrip — so a daemon with a
// dead peer or a vanished client shows the loss in its errors column
// instead of reporting a healthy shard.
func (s *Shard) flush(t int64) (int64, error) {
	var firstErr error
	for to, frames := range s.pending {
		if len(frames) == 0 {
			continue
		}
		s.pending[to] = nil
		if err := s.tr.SendBatch(to, frames); err != nil {
			s.stats.Errors += int64(len(frames))
			if firstErr == nil {
				firstErr = err
			}
		}
		t = s.p.Lap(telemetry.StageSend, t)
	}
	for i := range s.replies {
		if len(s.replies[i].frames) == 0 {
			continue
		}
		var err error
		if t, err = s.writeReplies(&s.replies[i], t); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.replies = s.replies[:0]
	return t, firstErr
}

// handle processes one received frame. retained reports that the
// inbound buffer was shipped or queued onward (a repatched flight frame,
// a completion report on its way to the client) and must not be
// recycled. t is the sampled-batch Lap chain (0 = unsampled),
// threaded through and returned so the shard's whole batch is tiled
// by stage attributions.
func (s *Shard) handle(in InFrame, t int64) (retained bool, tOut int64, err error) {
	// The two fixed-layout kinds have their own decoders; everything
	// else — including any message that fails the peek (bad magic, a
	// foreign version) — goes through UnmarshalFrame for the full
	// diagnostic.
	if k, ok := wire.PeekFrameKind(in.Data); ok {
		switch k {
		case wire.FrameFlight:
			return s.handleFlight(in, t)
		case wire.FrameInjectBatch:
			t, err = s.handleInjectBatch(in, t)
			return false, t, err
		case wire.FrameChurn:
			t, err = s.stashChurn(in, t)
			return false, t, err
		}
	}
	f := &s.frame
	if err := wire.UnmarshalFrame(in.Data, f); err != nil {
		return false, t, err
	}
	switch f.Kind {
	case wire.FrameInject:
		t, err = s.inject(f, in.Conn, t)
		return false, t, err
	case wire.FrameDone, wire.FrameDrop:
		// A completion (or lossy-completion) report passing through its
		// home shard on the way back to the client connection that
		// injected it: the received bytes are queued as they are.
		t, err := s.reply(f.Origin, in.Data, t)
		return true, t, err
	case wire.FrameInfoReq:
		data, err := wire.AppendFrame(s.outBuf(), &s.info)
		if err != nil {
			return false, t, err
		}
		t, err = s.reply(in.Conn, data, t)
		return false, t, err
	default:
		return false, t, fmt.Errorf("cluster: shard %d received unexpected %d frame", s.view.Shard(), f.Kind)
	}
}

// handleFlight resumes an in-flight packet from its fixed-layout frame:
// the preamble and the scheme's waypoint scalars decode at fixed
// offsets, the label blobs only if this shard owns the endpoint that
// reads them, and the received bytes ride along so the next crossing
// can ship them repatched or copy the skipped blobs verbatim.
func (s *Shard) handleFlight(in InFrame, t int64) (bool, int64, error) {
	f := &s.frame
	if err := wire.UnmarshalFlightFrame(in.Data, f); err != nil {
		return false, t, err
	}
	s.stats.FramesIn++
	if err := checkName(s.view, f.SrcName); err != nil {
		return false, t, err
	}
	if err := checkName(s.view, f.DstName); err != nil {
		return false, t, err
	}
	if f.At < 0 || int(f.At) >= s.view.Graph().N() {
		return false, t, fmt.Errorf("cluster: flight frame at node %d outside [0,%d)", f.At, s.view.Graph().N())
	}
	h, fs, err := s.hdec.DecodeFlight(f, s.view)
	if err != nil {
		return false, t, err
	}
	f.Header = nil
	t = s.p.Lap(telemetry.StageDecode, t)
	if s.p.Traced(f.Rt) {
		hops := int32(f.Out.Hops + f.Back.Hops)
		s.p.Record(telemetry.EvArrive, f.Rt, s.view.Shard(), int32(f.At), -1, hops, f.Return)
	}
	var fl sim.Flight
	if !f.Return {
		fl = flightOf(f.Out, f.At)
	} else {
		fl = flightOf(f.Back, f.At)
	}
	return s.advance(f, h, fl, in.Data, fs, t)
}

// stashChurn decodes a churn frame and parks it in pendingC until its
// turn (see applyChurn). Events are fully validated against this graph
// here, before anything mutates, so a malformed batch is a clean reject
// — counted in daemon mode — and a Repair failure can only mean the
// repair itself went wrong (which rightly poisons the shard).
func (s *Shard) stashChurn(in InFrame, t int64) (int64, error) {
	if !s.armed {
		return t, fmt.Errorf("cluster: shard %d received a churn frame but has no repair hook", s.view.Shard())
	}
	seq, events, err := wire.DecodeChurnFrame(in.Data, nil)
	if err != nil {
		return t, err
	}
	if seq == 0 {
		return t, fmt.Errorf("cluster: churn batch with sequence number 0")
	}
	if seq < s.nextSeq {
		// Already applied — a client rerun that numbers from 1 again.
		// Parked, it would wait forever and its client with it; instead
		// the client hears the number this shard expects next, which
		// its ack check reports beside its own.
		reject := fmt.Errorf("cluster: churn batch %d already applied (next is %d)", seq, s.nextSeq)
		if in.Conn != 0 && s.opts.OnRepaired == nil {
			if t, err = s.reply(in.Conn, wire.AppendChurnFrame(s.outBuf(), s.nextSeq, nil), t); err != nil {
				return t, err
			}
		}
		return t, reject
	}
	g := s.view.Graph()
	n := g.N()
	for i, ev := range events {
		switch ev.Kind {
		case churn.EdgeDown, churn.EdgeUp, churn.WeightChange:
			// Churn reweights edges in place and never adds or removes
			// one, so this graph's adjacency is the repair replica's.
			if !g.HasEdge(ev.U, ev.V) {
				return t, fmt.Errorf("cluster: churn event %d names (%d,%d), not an edge of this graph", i, ev.U, ev.V)
			}
			if ev.Kind == churn.WeightChange && (ev.Weight < 1 || ev.Weight >= graph.DownWeight) {
				return t, fmt.Errorf("cluster: churn event %d sets weight %d outside [1, DownWeight)", i, ev.Weight)
			}
		default:
			if int(ev.Node) >= n {
				return t, fmt.Errorf("cluster: churn event %d touches node %d outside [0,%d)", i, ev.Node, n)
			}
		}
	}
	s.pendingC[seq] = churnBatch{seq: seq, events: events, conn: in.Conn}
	return t, nil
}

// handleInjectBatch starts every roundtrip of a batched inject message.
func (s *Shard) handleInjectBatch(in InFrame, t int64) (int64, error) {
	err := wire.ForEachInject(in.Data, &s.frame, func(f *wire.Frame) error {
		var err error
		t, err = s.inject(f, in.Conn, t)
		return err
	})
	return t, err
}

// inject starts (or re-routes) one requested roundtrip.
func (s *Shard) inject(f *wire.Frame, conn uint64, t int64) (int64, error) {
	// Fresh client injects are stamped with their reply route
	// before anything else, so re-routing preserves it.
	if f.Home == wire.HomeClient {
		f.Home = int32(s.view.Shard())
		f.Origin = conn
	}
	if err := checkName(s.view, f.SrcName); err != nil {
		return t, err
	}
	if err := checkName(s.view, f.DstName); err != nil {
		return t, err
	}
	src := s.view.NodeOf(f.SrcName)
	if !s.view.Owns(src) {
		// Header creation is the source's job: route the inject to
		// the shard that owns the source node.
		f.Kind = wire.FrameInject
		data, err := wire.AppendFrame(s.outBuf(), f)
		if err != nil {
			return t, err
		}
		t = s.p.Lap(telemetry.StageEncode, t)
		return s.ship(s.place.Shard(src), data, t)
	}
	h := s.injectHdr
	var err error
	if h == nil {
		if h, err = s.view.NewHeader(f.SrcName, f.DstName); err != nil {
			return t, err
		}
		s.stats.Allocs++
		s.injectHdr = h
	} else if err = s.view.ResetHeader(h, f.SrcName, f.DstName); err != nil {
		return t, err
	}
	if s.p.Traced(f.Rt) {
		s.p.Record(telemetry.EvInject, f.Rt, s.view.Shard(), int32(src), -1, 0, false)
	}
	f.Return = false
	f.Out, f.Back = wire.LegTotals{}, wire.LegTotals{}
	_, t, err = s.advance(f, h, sim.Flight{Last: src, MaxHeaderWords: h.Words()}, nil, wire.FlightState{}, t)
	return t, err
}

// advance drives a packet as far as this shard can take it: segment by
// segment through the roundtrip protocol — outbound leg, the flip at
// the destination (which is local when the outbound leg delivers here),
// return leg — until the packet either completes or crosses onto a
// foreign node, at which point it is shipped to the owner as a flight
// frame. prev, when non-nil, is the flight frame the header arrived in
// (with its decode snapshot fs): a crossing whose header kept its shape
// ships those same bytes repatched — the zero-decode, zero-encode,
// zero-copy crossing — and a reshaped header re-encodes, with the label
// blobs this shard never decoded copied from prev verbatim. retained
// reports the repatch case: prev now belongs to the transport.
func (s *Shard) advance(f *wire.Frame, h sim.Header, fl sim.Flight, prev []byte, fs wire.FlightState, t int64) (retained bool, tOut int64, err error) {
	traced := s.p.Traced(f.Rt)
	for {
		var hook sim.HopHook
		if traced {
			// The hook records every hop; trRt/trRet feed it without a
			// per-packet closure.
			s.trRt, s.trRet, hook = f.Rt, f.Return, s.hook
		}
		var delivered bool
		delivered, err = s.seg.FlyHooked(h, &fl, hook)
		if err != nil {
			if s.armed {
				// Under convergence a forwarding failure is an expected
				// casualty, not a broken invariant: a packet that hit a
				// down edge is a typed drop, anything else — hop budget
				// burned looping on stale tables, a vanished out-port —
				// a misroute. Either way the roundtrip completes as an
				// accounted loss; nothing hangs.
				reason := wire.DropMisroute
				if errors.Is(err, sim.ErrUnroutable) {
					reason = wire.DropUnroutable
				}
				t, err = s.lose(f, reason, t)
				return false, t, err
			}
			return false, t, err
		}
		if !delivered {
			t = s.p.Lap(telemetry.StageRoute, t)
			if !f.Return {
				f.Out = totalsOf(fl)
			} else {
				f.Back = totalsOf(fl)
			}
			f.At = fl.Last
			f.Kind = wire.FrameFlight
			to := s.place.Shard(fl.Last)
			s.stats.FramesOut++
			if traced {
				hops := int32(f.Out.Hops + f.Back.Hops)
				s.p.Record(telemetry.EvDepart, f.Rt, s.view.Shard(), int32(f.At), int32(to), hops, f.Return)
			}
			if prev != nil && fs.CanPatch(f, h) {
				if err := wire.RepatchFlight(prev, f, h); err != nil {
					return false, t, err
				}
				t = s.p.Lap(telemetry.StageEncode, t)
				t, err = s.ship(to, prev, t)
				return true, t, err
			}
			data, err := wire.AppendFlightFrame(s.outBuf(), f, h, prev)
			if err != nil {
				return false, t, err
			}
			if len(data) > s.sizeHint {
				s.sizeHint = len(data) + len(data)/4
			}
			t = s.p.Lap(telemetry.StageEncode, t)
			t, err = s.ship(to, data, t)
			return false, t, err
		}
		if !f.Return {
			dst := s.view.NodeOf(f.DstName)
			if fl.Last != dst {
				if s.armed {
					t, err = s.lose(f, wire.DropMisroute, t)
					return false, t, err
				}
				return false, t, fmt.Errorf("cluster: outbound %d->%d delivered at wrong node %d", f.SrcName, f.DstName, fl.Last)
			}
			f.Out = totalsOf(fl)
			if err := s.view.BeginReturn(h); err != nil {
				return false, t, err
			}
			f.Return = true
			if traced {
				s.p.Record(telemetry.EvFlip, f.Rt, s.view.Shard(), int32(dst), -1, f.Out.Hops, true)
			}
			fl = sim.Flight{Last: dst, MaxHeaderWords: h.Words()}
			continue
		}
		src := s.view.NodeOf(f.SrcName)
		if fl.Last != src {
			if s.armed {
				t, err = s.lose(f, wire.DropMisroute, t)
				return false, t, err
			}
			return false, t, fmt.Errorf("cluster: return %d->%d delivered at wrong node %d", f.DstName, f.SrcName, fl.Last)
		}
		f.Back = totalsOf(fl)
		t = s.p.Lap(telemetry.StageRoute, t)
		t, err = s.complete(f, t)
		return false, t, err
	}
}

// complete records a finished roundtrip and routes its completion
// report home.
func (s *Shard) complete(f *wire.Frame, t int64) (int64, error) {
	hops := int(f.Out.Hops) + int(f.Back.Hops)
	weight := f.Out.Weight + f.Back.Weight
	s.stats.Packets++
	s.stats.Hops += int64(hops)
	s.stats.Weight += int64(weight)
	s.hopHist.Add(hops)
	hw := f.Out.MaxHeaderWords
	if f.Back.MaxHeaderWords > hw {
		hw = f.Back.MaxHeaderWords
	}
	s.hdrHist.Add(int(hw))
	s.p.Heat(f.DstName)
	if s.p.Traced(f.Rt) {
		s.p.Record(telemetry.EvComplete, f.Rt, s.view.Shard(), int32(s.view.NodeOf(f.SrcName)), -1, int32(hops), true)
	}
	if f.Home == wire.HomeLocal {
		if f.Sampled {
			if len(s.samples) == cap(s.samples) {
				s.stats.Allocs++
			}
			s.samples = append(s.samples, traffic.Sample{
				Src:    s.view.NodeOf(f.SrcName),
				Dst:    s.view.NodeOf(f.DstName),
				Weight: weight,
			})
		}
		if s.opts.OnDone != nil {
			s.opts.OnDone(f)
		}
		return s.p.Lap(telemetry.StageComplete, t), nil
	}
	return s.report(f.Home, &wire.Frame{
		Kind: wire.FrameDone, SrcName: f.SrcName, DstName: f.DstName,
		Out: f.Out, Back: f.Back, Origin: f.Origin, Rt: f.Rt, Sampled: f.Sampled,
	}, t)
}

// report routes a completion or drop report home: queued for the client
// connection when home is this shard, else shipped to the home shard.
func (s *Shard) report(home int32, rep *wire.Frame, t int64) (int64, error) {
	t = s.p.Lap(telemetry.StageComplete, t)
	data, err := wire.AppendFrame(s.outBuf(), rep)
	if err != nil {
		return t, err
	}
	t = s.p.Lap(telemetry.StageEncode, t)
	if int(home) == s.view.Shard() {
		return s.reply(rep.Origin, data, t)
	}
	return s.ship(int(home), data, t)
}

// lose completes a roundtrip as an accounted loss: the shard-level
// counter for the reason is bumped and the report is routed home
// exactly like a FrameDone — delivered to OnLost for local homes,
// shipped (or replied) as a FrameDrop otherwise. The issuer always
// hears about the roundtrip exactly once.
func (s *Shard) lose(f *wire.Frame, reason byte, t int64) (int64, error) {
	if reason == wire.DropUnroutable {
		s.drops.Add(1)
	} else {
		s.misroutes.Add(1)
	}
	if f.Home == wire.HomeLocal {
		if s.opts.OnLost != nil {
			s.opts.OnLost(f, reason)
		}
		return s.p.Lap(telemetry.StageComplete, t), nil
	}
	return s.report(f.Home, &wire.Frame{
		Kind: wire.FrameDrop, SrcName: f.SrcName, DstName: f.DstName,
		Origin: f.Origin, Rt: f.Rt, Reason: reason,
	}, t)
}

func totalsOf(fl sim.Flight) wire.LegTotals {
	return wire.LegTotals{Hops: int32(fl.Hops), Weight: fl.Weight, MaxHeaderWords: int32(fl.MaxHeaderWords)}
}

func flightOf(t wire.LegTotals, at graph.NodeID) sim.Flight {
	return sim.Flight{Hops: int(t.Hops), Weight: t.Weight, MaxHeaderWords: int(t.MaxHeaderWords), Last: at}
}

func checkName(v *core.ShardView, name int32) error {
	if name < 0 || int(name) >= v.Graph().N() {
		return fmt.Errorf("cluster: name %d outside [0,%d)", name, v.Graph().N())
	}
	return nil
}
