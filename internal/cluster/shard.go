package cluster

import (
	"errors"
	"fmt"
	"sync"
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
	// Allocs counts tracked allocation events at the worker's known
	// allocation sites — frame-pool misses (a buffer or a batch slice),
	// sample growth, the once-per-worker inject header. Per-worker and
	// attributable, unlike a whole-process ReadMemStats delta; the
	// build-tag alloc gate keeps a process-wide measurement as the
	// backstop for sites this ledger does not know about.
	Allocs int64
}

// shardWorker is one worker goroutine's private state: counters,
// histograms, samples and scratch, touched by exactly one goroutine
// until the post-run merge.
type shardWorker struct {
	stats   ShardStats
	hopHist eval.Hist
	hdrHist eval.Hist
	samples []traffic.Sample
	frame   wire.Frame
	// hdec decodes arriving packet headers into reusable storage; a
	// decoded header lives only for the one advance() call, so one
	// scratch per worker suffices.
	hdec wire.HeaderDecoder
	// inject is the reusable injection header (ResetHeader per
	// roundtrip, the traffic engine's allocation discipline).
	inject sim.Header
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
	// hand is what the worker holds of the transport's frame pool
	// within one batch: outbound buffers and pending slices come from
	// it, the batch's dead buffers and processed slices go back into it
	// for reuse, and all of it returns to the pool before the flush.
	hand hand
	// p is the worker's telemetry probe (nil = telemetry off; every
	// probe method is a nil-receiver no-op).
	p *telemetry.Probe
	// hook records per-hop trace events for roundtrips armed by the
	// trace sampler; trRt/trRet carry the roundtrip tag and leg into
	// the hook without a per-hop closure allocation.
	hook  sim.HopHook
	trRt  uint64
	trRet bool
	// worker is this worker's index, the trace events' tid.
	worker int
	// churn stashes churn batches decoded mid-batch; they are applied
	// after the read fence is released (see applyChurn).
	churn []churnBatch
}

// replyQueue is one accepted connection's unflushed reply frames.
type replyQueue struct {
	conn   uint64
	frames []InFrame
}

// publish hands the probe a copy of the worker's counters at a batch
// boundary — the reader-visible state /metrics and Snapshot merge, by
// construction field-for-field identical to the end-of-run ShardStats.
func (st *shardWorker) publish() {
	if st.p == nil {
		return
	}
	st.p.Publish(telemetry.Counters{
		Packets: st.stats.Packets, Hops: st.stats.Hops, Weight: st.stats.Weight,
		FramesIn: st.stats.FramesIn, FramesOut: st.stats.FramesOut,
		Errors: st.stats.Errors, Allocs: st.stats.Allocs,
	})
}

// queue appends an outbound frame to an accumulation, starting it on a
// slice from the hand (cut at full batch capacity on a miss), and
// reports whether it reached the batch bound.
func (st *shardWorker) queue(q *[]InFrame, data []byte, batch int) bool {
	if *q == nil {
		if *q = take(&st.hand, &st.hand.slabs, batch); *q == nil {
			st.stats.Allocs++
			*q = make([]InFrame, 0, max(batch, tcpBatch))
		}
	}
	*q = append(*q, InFrame{Data: data})
	return len(*q) >= batch
}

// outBuf returns an empty buffer for an outbound frame, cutting one on
// a miss.
func (st *shardWorker) outBuf() []byte {
	if b := take(&st.hand, &st.hand.bufs, st.sizeHint); b != nil {
		return b
	}
	st.stats.Allocs++
	return make([]byte, 0, frameCap(st.sizeHint))
}

// Options tunes a Shard.
type Options struct {
	// Workers is this shard's serving pool size (default 1).
	Workers int
	// Batch bounds how many outbound frames a worker accumulates per
	// destination shard before an early flush (default 64). Received
	// batch sizes are whatever the senders accumulated.
	Batch int
	// MaxHops bounds each leg (0 = sim's default 4n budget).
	MaxHops int
	// Strict aborts the worker on any error (the in-process engine's
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
	// and applied under the epoch fence — the callback mutates this
	// shard's graph replica and rebuilds the owned slice of its tables
	// while in-flight roundtrips drain on the previous epoch's routes.
	// It also switches serving to lossy mode: forwarding failures that
	// strict mode treats as broken invariants become accounted drops
	// (see ShardStats.Drops/Misroutes), because under convergence they
	// are expected casualties, not bugs. A Repair error poisons the
	// shard — the worker returns it even in daemon mode, since a shard
	// that half-applied a batch must never serve.
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
// daemon (Serve); only the transport differs.
type Shard struct {
	view    *core.ShardView
	place   *Placement
	tr      Transport
	opts    Options
	info    wire.Frame
	workers []shardWorker
	// seg is the shard's hoisted segment runner: port table, ownership
	// predicate and hop budget resolved once, not per packet — and
	// rebuilt under the write fence after each repair, because it caches
	// the graph's port table at construction.
	seg *sim.SegmentRunner

	// The epoch fence (armed when opts.Repair != nil; a cold RWMutex
	// otherwise, never locked). Workers hold the read side across one
	// received batch — decode, forward, flush — so a repair's write side
	// is exactly a barrier at batch granularity: in-flight roundtrips
	// complete (or drop, accounted) on the old epoch's routes, the
	// repair runs alone, and the next batch serves the new epoch. No
	// global stop-the-world: each shard fences independently.
	armed bool
	fence sync.RWMutex
	// churnMu orders repair application; pendingC parks batches that
	// arrived ahead of sequence (the fabric reorders freely) and nextSeq
	// is the next batch to apply — sequence numbers start at 1.
	churnMu  sync.Mutex
	pendingC map[uint64]churnBatch
	nextSeq  uint64

	// Lossy-mode and repair counters, shard-level atomics: workers add
	// from inside the read fence, gauges read concurrently.
	drops          atomic.Int64
	misroutes      atomic.Int64
	repairs        atomic.Int64
	repairNanos    atomic.Int64
	fenceWaitNanos atomic.Int64
}

// churnBatch is one decoded churn frame parked for in-order application.
type churnBatch struct {
	seq    uint64
	events []churn.Event
	conn   uint64 // accepted-connection reply token, 0 = none
}

// NewShard assembles one shard over its view, placement and transport.
func NewShard(view *core.ShardView, place *Placement, tr Transport, opts Options) *Shard {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Batch < 1 {
		opts.Batch = 64
	}
	s := &Shard{
		view: view, place: place, tr: tr, opts: opts,
		workers: make([]shardWorker, opts.Workers),
		// The segment runner guards every hop with view.Owns before
		// forwarding, so it can call the deployment directly and skip
		// the view's own per-hop ownership re-check.
		seg: sim.NewSegmentRunner(view.Graph(), view.Deployment(), opts.MaxHops, view.Owns),
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

// Stats merges the shard's per-worker counters (call after the workers
// have stopped, or accept a racy snapshot).
func (s *Shard) Stats() ShardStats {
	out := ShardStats{Shard: s.view.Shard(), Nodes: s.view.NodeCount()}
	for i := range s.workers {
		w := &s.workers[i].stats
		out.Packets += w.Packets
		out.Hops += w.Hops
		out.Weight += w.Weight
		out.FramesIn += w.FramesIn
		out.FramesOut += w.FramesOut
		out.Errors += w.Errors
		out.Allocs += w.Allocs
	}
	out.Drops = s.drops.Load()
	out.Misroutes = s.misroutes.Load()
	return out
}

// ChurnStats returns the shard's churn-plane counters: lossy
// completions by reason, repairs applied, and total repair wall time —
// from asking for the write fence to releasing it, so it includes
// FenceWaitNanos. Safe to read while serving (gauges poll it live).
func (s *Shard) ChurnStats() (drops, misroutes, repairs, repairNanos int64) {
	return s.drops.Load(), s.misroutes.Load(), s.repairs.Load(), s.repairNanos.Load()
}

// FenceWaitNanos returns the part of ChurnStats' repair time applied
// repairs spent waiting for the write fence — for the other workers'
// serving batches to drain — before any repairing began.
func (s *Shard) FenceWaitNanos() int64 { return s.fenceWaitNanos.Load() }

// hists merges the shard's histograms and samples into the caller's.
func (s *Shard) hists(hop, hdr *eval.Hist, samples *[]traffic.Sample) {
	for i := range s.workers {
		hop.Merge(&s.workers[i].hopHist)
		hdr.Merge(&s.workers[i].hdrHist)
		*samples = append(*samples, s.workers[i].samples...)
	}
}

// Serve pumps the shard's mailbox with its worker pool until the
// transport closes, then returns the first worker error (nil on clean
// shutdown). A failed worker closes the transport, so the pool stops
// with it instead of serving on without it. This is the daemon loop
// rtserve runs and the body the in-process fabric spawns per shard.
func (s *Shard) Serve() error {
	var wg sync.WaitGroup
	errs := make([]error, len(s.workers))
	for w := range s.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if errs[w] = s.worker(w); errs[w] != nil {
				s.tr.Close()
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// worker is one mailbox pump: block for a batch, handle each frame,
// then flush everything the batch emitted — one transport message per
// destination shard and per answered client connection, the send-side
// half of the batching discipline. Nothing outlives the flush: when the
// worker re-enters Recv every frame it produced is with the transport.
//
// Telemetry rides the same rhythm: each Recv opens a batch on the
// worker's probe (counting it, charging the blocked time to
// recv-wait, and — on sampled batches — arming the Lap chain t that
// threads through every handle and the final flush), and each batch
// closes with a counter publish. An unsampled batch carries t == 0
// and every Lap passes it through for free.
func (s *Shard) worker(w int) error {
	st := &s.workers[w]
	st.worker = w
	st.pending = make([][]InFrame, s.place.Shards)
	st.hand.pool = s.tr.pool()
	st.p = s.opts.Sink.Probe(s.opts.SinkShard, w)
	if st.p != nil {
		shard := s.view.Shard()
		st.hook = func(at graph.NodeID, hops int, weight graph.Dist) {
			st.p.Record(telemetry.EvHop, st.trRt, shard, st.worker, int32(at), -1, int32(hops), st.trRet)
		}
		defer st.publish()
	}
	for {
		wait0 := st.p.Now()
		frames, err := s.tr.Recv()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil
			}
			return err
		}
		// The epoch fence's read side spans the whole batch: every route
		// this batch forwards is computed against one consistent epoch of
		// the shard's tables, and a repair waiting on the write side gets
		// in after the flush, never mid-packet.
		s.rlock()
		t := st.p.BatchStart(wait0)
		// Drain everything immediately available before flushing, so the
		// outbound accumulations grow to the queued work instead of
		// collapsing to singleton batches.
		processed := 0
		for {
			for i := range frames {
				var retained bool
				retained, t, err = s.handle(st, frames[i], t)
				if err != nil {
					if s.opts.Strict {
						s.runlock()
						return err
					}
					st.stats.Errors++
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
			st.hand.put(frames)
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
				s.runlock()
				return nil
			}
			if s.opts.Strict {
				s.runlock()
				return err
			}
			st.stats.Errors++
		}
		// Everything the batch freed goes back to the pool before the
		// flush writes: nothing the worker holds outlives its batch.
		st.hand.release()
		if _, err := s.flush(st, t); err != nil {
			if s.opts.Strict && !errors.Is(err, ErrClosed) {
				s.runlock()
				return err
			}
		}
		s.runlock()
		st.publish()
		// Repairs run outside the read fence: the batch that carried the
		// churn frame has fully drained, so the write side only contends
		// with the other workers' serving batches.
		if err := s.applyChurn(st); err != nil {
			return err
		}
	}
}

// rlock / runlock are the fence's read side, free when churn is unarmed.
func (s *Shard) rlock() {
	if s.armed {
		s.fence.RLock()
	}
}

func (s *Shard) runlock() {
	if s.armed {
		s.fence.RUnlock()
	}
}

// applyChurn applies the worker's stashed churn batches — plus any
// previously parked out-of-order batches they unblock — in sequence
// order under the write fence. A Repair error is returned (and poisons
// the shard) regardless of Strict: serving from a half-applied epoch is
// never an option.
func (s *Shard) applyChurn(st *shardWorker) error {
	if len(st.churn) == 0 {
		return nil
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	for _, b := range st.churn {
		s.pendingC[b.seq] = b
	}
	st.churn = st.churn[:0]
	for {
		b, ok := s.pendingC[s.nextSeq]
		if !ok {
			return nil
		}
		delete(s.pendingC, s.nextSeq)
		start := time.Now()
		s.fence.Lock()
		fenced := time.Now()
		err := s.opts.Repair(b.seq, b.events)
		if err == nil {
			// The runner cached the pre-repair port table; rebuild it
			// against the mutated graph before anyone routes again.
			s.seg = sim.NewSegmentRunner(s.view.Graph(), s.view.Deployment(), s.opts.MaxHops, s.view.Owns)
		}
		s.fence.Unlock()
		if err != nil {
			// Poison the whole shard, not just this worker: the other
			// workers must never serve an epoch the repair may have left
			// half-applied, and closing the transport is what stops the
			// pool. Serve then returns this error.
			s.tr.Close()
			return fmt.Errorf("cluster: shard %d repair of churn batch %d: %w", s.view.Shard(), b.seq, err)
		}
		s.repairs.Add(1)
		s.repairNanos.Add(time.Since(start).Nanoseconds())
		s.fenceWaitNanos.Add(fenced.Sub(start).Nanoseconds())
		s.nextSeq++
		if s.opts.OnRepaired != nil {
			s.opts.OnRepaired(b.seq)
		} else if b.conn != 0 {
			// Ack the injecting client connection: an empty batch echoing
			// the sequence number.
			ack := []InFrame{{Data: wire.AppendChurnFrame(nil, b.seq, nil)}}
			if err := s.tr.ReplyBatch(b.conn, ack); err != nil {
				st.stats.Errors++
			}
		}
	}
}

// ship queues one outbound frame, early-flushing a destination that
// reaches the batch bound. t threads the sampled-batch Lap chain so
// an early flush's send rendezvous lands in the send stage, not in
// whatever stage surrounds the caller.
func (s *Shard) ship(st *shardWorker, to int, data []byte, t int64) (int64, error) {
	if to < 0 || to >= len(st.pending) {
		return t, fmt.Errorf("cluster: frame addressed to unknown shard %d", to)
	}
	if st.queue(&st.pending[to], data, s.opts.Batch) {
		frames := st.pending[to]
		st.pending[to] = nil
		err := s.tr.SendBatch(to, frames)
		return st.p.Lap(telemetry.StageSend, t), err
	}
	return t, nil
}

// reply queues one frame for an accepted client connection, writing
// the connection's queue early when it reaches the batch bound. From
// here on data belongs to the queue and then the transport. A refused
// early write is already counted frame by frame (see writeReplies), so
// only a strict shard hears about it again.
func (s *Shard) reply(st *shardWorker, conn uint64, data []byte, t int64) (int64, error) {
	var q *replyQueue
	for i := range st.replies {
		if st.replies[i].conn == conn {
			q = &st.replies[i]
			break
		}
	}
	if q == nil {
		st.replies = append(st.replies, replyQueue{conn: conn})
		q = &st.replies[len(st.replies)-1]
	}
	if st.queue(&q.frames, data, s.opts.Batch) {
		var err error
		if t, err = s.writeReplies(st, q, t); err != nil && s.opts.Strict {
			return t, err
		}
	}
	return t, nil
}

// writeReplies hands one connection's queue to the transport as one
// message. Every frame of a refused write is counted: each is a
// roundtrip whose issuer will not hear of it.
func (s *Shard) writeReplies(st *shardWorker, q *replyQueue, t int64) (int64, error) {
	frames := q.frames
	q.frames = nil
	err := s.tr.ReplyBatch(q.conn, frames)
	if err != nil {
		st.stats.Errors += int64(len(frames))
	}
	return st.p.Lap(telemetry.StageSend, t), err
}

// flush ships every destination's accumulated frames, then every
// answered connection's. Every frame of a batch a transport refuses is
// counted as dropped — each is a live roundtrip — so a daemon with a
// dead peer or a vanished client shows the loss in its errors column
// instead of reporting a healthy shard.
func (s *Shard) flush(st *shardWorker, t int64) (int64, error) {
	var firstErr error
	for to, frames := range st.pending {
		if len(frames) == 0 {
			continue
		}
		st.pending[to] = nil
		if err := s.tr.SendBatch(to, frames); err != nil {
			st.stats.Errors += int64(len(frames))
			if firstErr == nil {
				firstErr = err
			}
		}
		t = st.p.Lap(telemetry.StageSend, t)
	}
	for i := range st.replies {
		if len(st.replies[i].frames) == 0 {
			continue
		}
		var err error
		if t, err = s.writeReplies(st, &st.replies[i], t); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	st.replies = st.replies[:0]
	return t, firstErr
}

// handle processes one received frame. retained reports that the
// inbound buffer was shipped or queued onward (a repatched flight frame,
// a completion report on its way to the client) and must not be
// recycled. t is the sampled-batch Lap chain (0 = unsampled),
// threaded through and returned so the worker's whole batch is tiled
// by stage attributions.
func (s *Shard) handle(st *shardWorker, in InFrame, t int64) (retained bool, tOut int64, err error) {
	// The two fixed-layout kinds have their own decoders; everything
	// else — including any message that fails the peek (bad magic, a
	// foreign version) — goes through UnmarshalFrame for the full
	// diagnostic.
	if k, ok := wire.PeekFrameKind(in.Data); ok {
		switch k {
		case wire.FrameFlight:
			return s.handleFlight(st, in, t)
		case wire.FrameInjectBatch:
			t, err = s.handleInjectBatch(st, in, t)
			return false, t, err
		case wire.FrameChurn:
			return false, t, s.stashChurn(st, in)
		}
	}
	f := &st.frame
	if err := wire.UnmarshalFrame(in.Data, f); err != nil {
		return false, t, err
	}
	switch f.Kind {
	case wire.FrameInject:
		t, err = s.inject(st, f, in.Conn, t)
		return false, t, err
	case wire.FrameDone, wire.FrameDrop:
		// A completion (or lossy-completion) report passing through its
		// home shard on the way back to the client connection that
		// injected it: the received bytes are queued as they are.
		t, err := s.reply(st, f.Origin, in.Data, t)
		return true, t, err
	case wire.FrameInfoReq:
		data, err := wire.AppendFrame(st.outBuf(), &s.info)
		if err != nil {
			return false, t, err
		}
		t, err = s.reply(st, in.Conn, data, t)
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
func (s *Shard) handleFlight(st *shardWorker, in InFrame, t int64) (bool, int64, error) {
	f := &st.frame
	if err := wire.UnmarshalFlightFrame(in.Data, f); err != nil {
		return false, t, err
	}
	st.stats.FramesIn++
	if err := checkName(s.view, f.SrcName); err != nil {
		return false, t, err
	}
	if err := checkName(s.view, f.DstName); err != nil {
		return false, t, err
	}
	if f.At < 0 || int(f.At) >= s.view.Graph().N() {
		return false, t, fmt.Errorf("cluster: flight frame at node %d outside [0,%d)", f.At, s.view.Graph().N())
	}
	h, fs, err := st.hdec.DecodeFlight(f, s.view)
	if err != nil {
		return false, t, err
	}
	f.Header = nil
	t = st.p.Lap(telemetry.StageDecode, t)
	if st.p.Traced(f.Rt) {
		hops := int32(f.Out.Hops + f.Back.Hops)
		st.p.Record(telemetry.EvArrive, f.Rt, s.view.Shard(), st.worker, int32(f.At), -1, hops, f.Return)
	}
	var fl sim.Flight
	if !f.Return {
		fl = flightOf(f.Out, f.At)
	} else {
		fl = flightOf(f.Back, f.At)
	}
	return s.advance(st, f, h, fl, in.Data, fs, t)
}

// stashChurn decodes a churn frame and parks it for application after
// the read fence drops. Events are fully validated against this graph
// here, before anything mutates, so a malformed batch is a clean reject
// — counted in daemon mode — and a Repair failure can only mean the
// repair itself went wrong (which rightly poisons the shard).
func (s *Shard) stashChurn(st *shardWorker, in InFrame) error {
	if !s.armed {
		return fmt.Errorf("cluster: shard %d received a churn frame but has no repair hook", s.view.Shard())
	}
	seq, events, err := wire.DecodeChurnFrame(in.Data, nil)
	if err != nil {
		return err
	}
	if seq == 0 {
		return fmt.Errorf("cluster: churn batch with sequence number 0")
	}
	g := s.view.Graph()
	n := g.N()
	for i, ev := range events {
		switch ev.Kind {
		case churn.EdgeDown, churn.EdgeUp, churn.WeightChange:
			// Churn reweights edges in place and never adds or removes
			// one, so this graph's adjacency is the repair replica's.
			if !g.HasEdge(ev.U, ev.V) {
				return fmt.Errorf("cluster: churn event %d names (%d,%d), not an edge of this graph", i, ev.U, ev.V)
			}
			if ev.Kind == churn.WeightChange && (ev.Weight < 1 || ev.Weight >= graph.DownWeight) {
				return fmt.Errorf("cluster: churn event %d sets weight %d outside [1, DownWeight)", i, ev.Weight)
			}
		default:
			if int(ev.Node) >= n {
				return fmt.Errorf("cluster: churn event %d touches node %d outside [0,%d)", i, ev.Node, n)
			}
		}
	}
	st.churn = append(st.churn, churnBatch{seq: seq, events: events, conn: in.Conn})
	return nil
}

// handleInjectBatch starts every roundtrip of a batched inject message.
func (s *Shard) handleInjectBatch(st *shardWorker, in InFrame, t int64) (int64, error) {
	err := wire.ForEachInject(in.Data, &st.frame, func(f *wire.Frame) error {
		var err error
		t, err = s.inject(st, f, in.Conn, t)
		return err
	})
	return t, err
}

// inject starts (or re-routes) one requested roundtrip.
func (s *Shard) inject(st *shardWorker, f *wire.Frame, conn uint64, t int64) (int64, error) {
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
		data, err := wire.AppendFrame(st.outBuf(), f)
		if err != nil {
			return t, err
		}
		t = st.p.Lap(telemetry.StageEncode, t)
		return s.ship(st, s.place.Shard(src), data, t)
	}
	h := st.inject
	var err error
	if h == nil {
		if h, err = s.view.NewHeader(f.SrcName, f.DstName); err != nil {
			return t, err
		}
		st.stats.Allocs++
		st.inject = h
	} else if err = s.view.ResetHeader(h, f.SrcName, f.DstName); err != nil {
		return t, err
	}
	if st.p.Traced(f.Rt) {
		st.p.Record(telemetry.EvInject, f.Rt, s.view.Shard(), st.worker, int32(src), -1, 0, false)
	}
	f.Return = false
	f.Out, f.Back = wire.LegTotals{}, wire.LegTotals{}
	_, t, err = s.advance(st, f, h, sim.Flight{Last: src, MaxHeaderWords: h.Words()}, nil, wire.FlightState{}, t)
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
func (s *Shard) advance(st *shardWorker, f *wire.Frame, h sim.Header, fl sim.Flight, prev []byte, fs wire.FlightState, t int64) (retained bool, tOut int64, err error) {
	traced := st.p.Traced(f.Rt)
	for {
		var hook sim.HopHook
		if traced {
			// The hook records every hop; trRt/trRet feed it without a
			// per-packet closure.
			st.trRt, st.trRet, hook = f.Rt, f.Return, st.hook
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
				t, err = s.lose(st, f, reason, t)
				return false, t, err
			}
			return false, t, err
		}
		if !delivered {
			t = st.p.Lap(telemetry.StageRoute, t)
			if !f.Return {
				f.Out = totalsOf(fl)
			} else {
				f.Back = totalsOf(fl)
			}
			f.At = fl.Last
			f.Kind = wire.FrameFlight
			to := s.place.Shard(fl.Last)
			st.stats.FramesOut++
			if traced {
				hops := int32(f.Out.Hops + f.Back.Hops)
				st.p.Record(telemetry.EvDepart, f.Rt, s.view.Shard(), st.worker, int32(f.At), int32(to), hops, f.Return)
			}
			if prev != nil && fs.CanPatch(f, h) {
				if err := wire.RepatchFlight(prev, f, h); err != nil {
					return false, t, err
				}
				t = st.p.Lap(telemetry.StageEncode, t)
				t, err = s.ship(st, to, prev, t)
				return true, t, err
			}
			data, err := wire.AppendFlightFrame(st.outBuf(), f, h, prev)
			if err != nil {
				return false, t, err
			}
			if len(data) > st.sizeHint {
				st.sizeHint = len(data) + len(data)/4
			}
			t = st.p.Lap(telemetry.StageEncode, t)
			t, err = s.ship(st, to, data, t)
			return false, t, err
		}
		if !f.Return {
			dst := s.view.NodeOf(f.DstName)
			if fl.Last != dst {
				if s.armed {
					t, err = s.lose(st, f, wire.DropMisroute, t)
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
				st.p.Record(telemetry.EvFlip, f.Rt, s.view.Shard(), st.worker, int32(dst), -1, f.Out.Hops, true)
			}
			fl = sim.Flight{Last: dst, MaxHeaderWords: h.Words()}
			continue
		}
		src := s.view.NodeOf(f.SrcName)
		if fl.Last != src {
			if s.armed {
				t, err = s.lose(st, f, wire.DropMisroute, t)
				return false, t, err
			}
			return false, t, fmt.Errorf("cluster: return %d->%d delivered at wrong node %d", f.DstName, f.SrcName, fl.Last)
		}
		f.Back = totalsOf(fl)
		t = st.p.Lap(telemetry.StageRoute, t)
		t, err = s.complete(st, f, t)
		return false, t, err
	}
}

// complete records a finished roundtrip and routes its completion
// report home.
func (s *Shard) complete(st *shardWorker, f *wire.Frame, t int64) (int64, error) {
	hops := int(f.Out.Hops) + int(f.Back.Hops)
	weight := f.Out.Weight + f.Back.Weight
	st.stats.Packets++
	st.stats.Hops += int64(hops)
	st.stats.Weight += int64(weight)
	st.hopHist.Add(hops)
	hw := f.Out.MaxHeaderWords
	if f.Back.MaxHeaderWords > hw {
		hw = f.Back.MaxHeaderWords
	}
	st.hdrHist.Add(int(hw))
	st.p.Heat(f.DstName)
	if st.p.Traced(f.Rt) {
		st.p.Record(telemetry.EvComplete, f.Rt, s.view.Shard(), st.worker, int32(s.view.NodeOf(f.SrcName)), -1, int32(hops), true)
	}
	if f.Home == wire.HomeLocal {
		if f.Sampled {
			if len(st.samples) == cap(st.samples) {
				st.stats.Allocs++
			}
			st.samples = append(st.samples, traffic.Sample{
				Src:    s.view.NodeOf(f.SrcName),
				Dst:    s.view.NodeOf(f.DstName),
				Weight: weight,
			})
		}
		if s.opts.OnDone != nil {
			s.opts.OnDone(f)
		}
		return st.p.Lap(telemetry.StageComplete, t), nil
	}
	return s.report(st, f.Home, &wire.Frame{
		Kind: wire.FrameDone, SrcName: f.SrcName, DstName: f.DstName,
		Out: f.Out, Back: f.Back, Origin: f.Origin, Rt: f.Rt, Sampled: f.Sampled,
	}, t)
}

// report routes a completion or drop report home: queued for the client
// connection when home is this shard, else shipped to the home shard.
func (s *Shard) report(st *shardWorker, home int32, rep *wire.Frame, t int64) (int64, error) {
	t = st.p.Lap(telemetry.StageComplete, t)
	data, err := wire.AppendFrame(st.outBuf(), rep)
	if err != nil {
		return t, err
	}
	t = st.p.Lap(telemetry.StageEncode, t)
	if int(home) == s.view.Shard() {
		return s.reply(st, rep.Origin, data, t)
	}
	return s.ship(st, int(home), data, t)
}

// lose completes a roundtrip as an accounted loss: the shard-level
// counter for the reason is bumped and the report is routed home
// exactly like a FrameDone — delivered to OnLost for local homes,
// shipped (or replied) as a FrameDrop otherwise. The issuer always
// hears about the roundtrip exactly once.
func (s *Shard) lose(st *shardWorker, f *wire.Frame, reason byte, t int64) (int64, error) {
	if reason == wire.DropUnroutable {
		s.drops.Add(1)
	} else {
		s.misroutes.Add(1)
	}
	if f.Home == wire.HomeLocal {
		if s.opts.OnLost != nil {
			s.opts.OnLost(f, reason)
		}
		return st.p.Lap(telemetry.StageComplete, t), nil
	}
	return s.report(st, f.Home, &wire.Frame{
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
