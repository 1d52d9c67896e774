package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by transport operations after Close: receivers
// treat it as clean shutdown, senders as "stop injecting".
var ErrClosed = errors.New("cluster: transport closed")

// InFrame is one received transport message: the frame bytes plus, for
// messages that arrived on an accepted client connection (TCP), the
// connection's reply token for ReplyBatch. The receiver owns Data.
type InFrame struct {
	Data []byte
	Conn uint64
}

// Transport is one shard's connection to the rest of the cluster: a
// frame-oriented message fabric. Frames are opaque length-delimited
// byte slices (the wire frame codec's output) which the transport never
// interprets; a buffer handed to it is its own from then on — passed to
// the receiver, or kept in its pool once copied to a socket.
// Implementations must allow concurrent SendBatch/ReplyBatch from many
// goroutines and concurrent Recv from a shard's worker pool.
type Transport interface {
	// SendBatch delivers many frames to shard to's mailbox as a single
	// message, blocking while it is full and returning ErrClosed after
	// the transport shuts down — the engine's amortization lever: a
	// worker accumulates everything a dequeue batch emits toward each
	// destination and pays one rendezvous per destination, not per
	// frame. Ownership of the slice and its buffers transfers with it.
	SendBatch(to int, frames []InFrame) error
	// Recv returns the next batch from this shard's mailbox, blocking
	// until at least one frame is available. The caller owns the
	// returned slice.
	Recv() ([]InFrame, error)
	// TryRecv is the non-blocking Recv: ok=false when the mailbox is
	// momentarily empty. Workers drain with TryRecv before flushing
	// their outbound accumulations, so batches grow to the work
	// actually queued instead of collapsing to singletons.
	TryRecv() ([]InFrame, bool, error)
	// ReplyBatch is SendBatch toward the accepted client connection
	// identified by conn (see InFrame.Conn): the frames go back as one
	// message, and the slice and its buffers are the transport's whether
	// or not it could deliver them. Transports without client
	// connections return an error.
	ReplyBatch(conn uint64, frames []InFrame) error
	// Close shuts the transport down, unblocking all Send/Recv calls.
	Close() error
	// pool is the transport's one stock of frame buffers and batch
	// slices, which its shards' workers draw from and give back to. A
	// wrapper that embeds a Transport passes it through.
	pool() *framePool
}

// Window is the pipelining credit counter: an injector Takes credits
// before starting roundtrips, completions Put them back, and the credit
// total caps how many roundtrips are ever in flight — the backpressure
// that keeps mailbox occupancy bounded (and the cluster deadlock-free
// by counting: mailbox capacity = window size). Unlike a semaphore
// channel, Take hands out credits in bulk, so a windowed injector pays
// one synchronization per burst, not per roundtrip, and Put is a lone
// atomic add on the completion path.
//
// Put also samples occupancy (window size minus available credits) at
// each completion, so a run can report how full the pipeline actually
// ran — the satellite metric distinguishing "window too small" from
// "crossings too slow".
type Window struct {
	size     int64
	avail    atomic.Int64
	occSum   atomic.Int64
	occCount atomic.Int64
	// wake is a capacity-1 signal channel: a Put into an empty window
	// leaves a token a blocked Take will find even if it was not yet
	// parked (no missed wakeups).
	wake chan struct{}
}

// NewWindow creates a window of n credits, all available.
func NewWindow(n int) *Window {
	w := &Window{size: int64(n), wake: make(chan struct{}, 1)}
	w.avail.Store(int64(n))
	return w
}

// Size returns the window's credit total.
func (w *Window) Size() int { return int(w.size) }

// Take acquires between 1 and max credits, blocking while the window is
// empty. It returns 0 only when done closes first — the injector's
// shutdown signal.
func (w *Window) Take(max int, done <-chan struct{}) int {
	for {
		avail := w.avail.Load()
		for avail > 0 {
			take := int64(max)
			if take > avail {
				take = avail
			}
			if w.avail.CompareAndSwap(avail, avail-take) {
				if avail > take {
					// Credits remain: pass the signal on so another
					// blocked taker re-checks too.
					select {
					case w.wake <- struct{}{}:
					default:
					}
				}
				return int(take)
			}
			avail = w.avail.Load()
		}
		select {
		case <-w.wake:
		case <-done:
			return 0
		}
	}
}

// Put returns n credits and samples pipeline occupancy.
func (w *Window) Put(n int) {
	after := w.avail.Add(int64(n))
	w.occSum.Add(w.size - after)
	w.occCount.Add(1)
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Outstanding returns the credits taken and not put back: zero once
// every roundtrip is accounted, negative after a double Put.
func (w *Window) Outstanding() int { return int(w.size - w.avail.Load()) }

// Settled checks take == put once the fabric has stopped.
func (w *Window) Settled() error {
	if out := w.Outstanding(); out > 0 {
		return fmt.Errorf("cluster: %d window credit(s) still out after the fabric stopped", out)
	} else if out < 0 {
		return fmt.Errorf("cluster: %d window credit(s) returned twice", -out)
	}
	return nil
}

// Occupancy returns the mean number of in-flight roundtrips observed at
// completion times (0 when nothing completed).
func (w *Window) Occupancy() float64 {
	n := w.occCount.Load()
	if n == 0 {
		return 0
	}
	return float64(w.occSum.Load()) / float64(n)
}

// ChanBus is the in-process transport: one bounded mailbox channel per
// shard, each element a batch of frames. It is the deterministic-test
// and benchmark fabric — same frame bytes as TCP, no sockets — and also
// the deadlock-freedom reference: with at most InFlight roundtrips live
// and every live roundtrip occupying at most one queued frame, a
// mailbox capacity of InFlight batches means sends never cycle-wait.
type ChanBus struct {
	inboxes []chan []InFrame
	closed  chan struct{}
	once    sync.Once
	stock   framePool // shared by every endpoint and the fabric's injectors
}

// NewChanBus creates a bus for the given shard count, each mailbox
// holding up to capacity batches.
func NewChanBus(shards, capacity int) *ChanBus {
	b := &ChanBus{inboxes: make([]chan []InFrame, shards), closed: make(chan struct{})}
	for i := range b.inboxes {
		b.inboxes[i] = make(chan []InFrame, capacity)
	}
	return b
}

// SendBatch delivers a batch of frames to shard to's mailbox (the
// fabric's injectors use the bus directly; shards go through their
// Endpoint).
func (b *ChanBus) SendBatch(to int, frames []InFrame) error {
	if to < 0 || to >= len(b.inboxes) {
		return fmt.Errorf("cluster: send to unknown shard %d (bus has %d)", to, len(b.inboxes))
	}
	if len(frames) == 0 {
		return nil
	}
	select {
	case b.inboxes[to] <- frames:
		return nil
	case <-b.closed:
		return ErrClosed
	}
}

// Close shuts the bus down; queued frames are discarded.
func (b *ChanBus) Close() error {
	b.once.Do(func() { close(b.closed) })
	return nil
}

// Done returns a channel closed when the bus shuts down, so producers
// blocked on anything other than the bus (an in-flight window, say) can
// wake up on shutdown too.
func (b *ChanBus) Done() <-chan struct{} { return b.closed }

// Endpoint returns shard's view of the bus.
func (b *ChanBus) Endpoint(shard int) Transport {
	return &busEndpoint{mailbox{b.inboxes[shard], b.closed}, b}
}

type busEndpoint struct {
	mailbox
	bus *ChanBus
}

// mailbox is one shard's inbox and its transport's shutdown signal, the
// receiving side both transports share.
type mailbox struct {
	inbox  chan []InFrame
	closed chan struct{}
}

func (e *busEndpoint) SendBatch(to int, frames []InFrame) error { return e.bus.SendBatch(to, frames) }

func (m mailbox) Recv() ([]InFrame, error) {
	select {
	case frames := <-m.inbox:
		return frames, nil
	case <-m.closed:
		return nil, ErrClosed
	}
}

func (m mailbox) TryRecv() ([]InFrame, bool, error) {
	select {
	case frames := <-m.inbox:
		return frames, true, nil
	case <-m.closed:
		return nil, false, ErrClosed
	default:
		return nil, false, nil
	}
}

func (e *busEndpoint) ReplyBatch(conn uint64, frames []InFrame) error {
	return fmt.Errorf("cluster: channel bus has no client connections (reply token %d)", conn)
}

func (e *busEndpoint) Close() error { return e.bus.Close() }

func (e *busEndpoint) pool() *framePool { return &e.bus.stock }
