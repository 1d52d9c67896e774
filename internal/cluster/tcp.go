package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The TCP transport: the same frames the channel bus carries, as
// length-prefixed segments over sockets. One rtserve daemon per shard
// listens on its address from a shared address list; shard-to-shard
// links are dialed lazily (daemons start in any order), and client
// connections (rtroute -connect) are accepted on the same listener —
// the protocol is symmetric, a frame is a frame. Wire format of one
// segment: a 4-byte big-endian length, then that many frame bytes.

// maxTCPFrame bounds one frame segment; headers are O(log^2 n) words,
// so anything near this is hostile input, not traffic.
const maxTCPFrame = 1 << 24

// tcpBatch bounds how many frames one read loop delivers as a single
// mailbox batch, and so the least capacity of a batch slice worth
// pooling.
const tcpBatch = 64

// The frame pool's bounds. A buffer is cut at minFrameCap or the next
// power of two above its frame, so the buffers of ordinary traffic are
// interchangeable; one above maxPooledFrame is left to the collector,
// so a hostile 16 MiB segment cannot pin its buffer in the pool.
const (
	minFrameCap    = 256
	maxPooledFrame = 8 << 10
)

func frameCap(n int) int {
	c := minFrameCap
	for c < n {
		c <<= 1
	}
	return c
}

// framePool is a transport's one stock of frame buffers and batch
// slices, shared by its read loops, its shards' workers and the fabric's
// injectors, so what is freed anywhere is reused anywhere, whichever way
// the frames flow. It has no count cap: a miss finds the pool empty or
// drops the too-small buffer it drew, so the pool never holds more than
// the most ever out at once — the frames alive, which the credit window
// bounds on the in-process fabric and the 4096-batch inbox on a daemon,
// plus a batch's worth in each hand.
type framePool struct {
	mu sync.Mutex
	stacks
	readAllocs atomic.Int64 // the read loops' misses
}

type stacks struct {
	bufs  [][]byte
	slabs [][]InFrame
}

// put keeps a dead batch: the buffers worth pooling (a frame shipped
// onward has had its Data cleared) and the slice when it can hold a full
// batch. The slice is not cleared — a read loop overwrites it from the
// front.
func (s *stacks) put(frames []InFrame) {
	for i := range frames {
		if b := frames[i].Data; cap(b) >= minFrameCap && cap(b) <= maxPooledFrame {
			s.bufs = append(s.bufs, b)
		}
	}
	if cap(frames) >= tcpBatch {
		s.slabs = append(s.slabs, frames[:0])
	}
}

// pop takes the top of a stack: nil when it is empty, or when the top is
// too small for size and is dropped — kept, it would repeat the miss.
func pop[E any](stack *[][]E, size int) []E {
	n := len(*stack)
	if n == 0 {
		return nil
	}
	s := (*stack)[n-1]
	*stack = (*stack)[:n-1]
	if cap(s) < size {
		return nil
	}
	return s[:0]
}

// put takes back a batch whose bytes have been copied out (or refused);
// a nil pool takes nothing.
func (p *framePool) put(frames []InFrame) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.stacks.put(frames)
	p.mu.Unlock()
}

// hand is one goroutine's share of a pool within a batch: filled a
// batch's worth per lock, refilled by what the batch frees, and released
// whole before the goroutine blocks again.
type hand struct {
	pool *framePool
	stacks
}

// take pops one of the hand's stacks, filling the hand when it is empty.
func take[E any](h *hand, stack *[][]E, size int) []E {
	if len(*stack) == 0 {
		p := h.pool
		p.mu.Lock()
		k := min(max(tcpBatch-len(h.bufs), 0), len(p.bufs))
		h.bufs = append(h.bufs, p.bufs[len(p.bufs)-k:]...)
		p.bufs = p.bufs[:len(p.bufs)-k]
		if s := pop(&p.slabs, 0); s != nil {
			h.slabs = append(h.slabs, s)
		}
		p.mu.Unlock()
	}
	return pop(stack, size)
}

func (h *hand) release() {
	p := h.pool
	p.mu.Lock()
	p.bufs = append(p.bufs, h.bufs...)
	p.slabs = append(p.slabs, h.slabs...)
	p.mu.Unlock()
	h.bufs, h.slabs = h.bufs[:0], h.slabs[:0]
}

// tcpDialRetries * tcpDialBackoff bounds how long a shard waits for a
// peer daemon to come up before failing the Send. This inline wait is
// paid only on a link's first use (daemons start in any order); once a
// link has been up, losing it marks the peer down and sends fail fast
// with *PeerDownError while a background redialer repairs the link off
// the serving path.
const (
	tcpDialRetries = 40
	tcpDialBackoff = 250 * time.Millisecond
)

// PeerDownError is the typed send failure for a shard link that was up
// and broke: the frame was not delivered, the caller should count and
// drop (non-strict serving) or abort (strict), and the transport is
// already redialing in the background — retrying the send inside the
// hot path would stall every worker on one dead peer.
type PeerDownError struct {
	Shard int
	Err   error
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("cluster: peer shard %d down: %v", e.Shard, e.Err)
}

func (e *PeerDownError) Unwrap() error { return e.Err }

// TCPTransport is one shard's socket fabric.
type TCPTransport struct {
	shard int
	addrs []string
	ln    net.Listener

	mailbox
	once sync.Once

	mu    sync.Mutex
	peers []tcpPeer           // lazily dialed shard->shard links, by shard index
	conns map[uint64]*tcpConn // accepted connections, by reply token
	next  uint64

	// Link-health counters for the telemetry plane: peerDowns counts
	// up->down transitions (each one a burst of fast-failing sends),
	// redials counts background dial attempts spent repairing them.
	peerDowns atomic.Int64
	redials   atomic.Int64
	// Batching by count: socket writes completed and the frames they
	// carried.
	writes        atomic.Int64
	framesWritten atomic.Int64

	stock framePool
}

// LinkStats reports the transport's link-health counters: how many
// times an up link broke, and how many background dial attempts the
// redialer has spent. Safe to call concurrently with serving.
func (t *TCPTransport) LinkStats() (peerDowns, redials int64) {
	return t.peerDowns.Load(), t.redials.Load()
}

// WriteStats reports how many socket writes the transport has completed
// and how many frames they carried; frames/writes is the batching the
// fabric actually achieved. Safe to call concurrently with serving.
func (t *TCPTransport) WriteStats() (writes, frames int64) {
	return t.writes.Load(), t.framesWritten.Load()
}

// tcpPeer is one outgoing shard link's state machine: virgin (never
// connected — the first send dials inline with backoff, since daemons
// start in any order), up (conn != nil), or down (was up, broke — sends
// fail fast, a single background goroutine redials).
type tcpPeer struct {
	conn      *tcpConn // non-nil = up
	everUp    bool
	redialing bool
	lastErr   error
}

// tcpConn serializes writes to one socket. The length-prefix assembly
// buffer is reused across writes (guarded by the same mutex), so a
// steady frame stream allocates nothing per send.
type tcpConn struct {
	mu   sync.Mutex
	c    net.Conn
	wbuf []byte
}

// appendFrame appends a frame as the wire carries it: 4-byte BE length, bytes.
func appendFrame(buf, frame []byte) []byte {
	return append(binary.BigEndian.AppendUint32(buf, uint32(len(frame))), frame...)
}

// readFrame reads one length-prefixed frame segment into buf's storage
// when that is large enough, into a fresh buffer otherwise.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	r.Discard(4)
	if n == 0 || n > maxTCPFrame {
		return nil, fmt.Errorf("cluster: tcp frame length %d outside (0, %d]", n, maxTCPFrame)
	}
	if cap(buf) < n {
		buf = make([]byte, n, frameCap(n))
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ListenTCP starts shard's endpoint of a TCP cluster whose shard i
// listens on addrs[i].
func ListenTCP(shard int, addrs []string) (*TCPTransport, error) {
	if shard < 0 || shard >= len(addrs) {
		return nil, fmt.Errorf("cluster: shard %d outside address list of %d", shard, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[shard])
	if err != nil {
		return nil, err
	}
	return NewTCPTransport(shard, ln, addrs), nil
}

// NewTCPTransport wraps an existing listener (tests use ":0" listeners
// and exchange the resolved addresses). addrs[shard] is ignored; the
// other entries are where peers are dialed.
func NewTCPTransport(shard int, ln net.Listener, addrs []string) *TCPTransport {
	t := &TCPTransport{
		shard: shard, addrs: addrs, ln: ln,
		mailbox: mailbox{make(chan []InFrame, 4096), make(chan struct{})},
		peers:   make([]tcpPeer, len(addrs)),
		conns:   make(map[uint64]*tcpConn),
	}
	go t.acceptLoop()
	return t
}

// Addr returns the listener's resolved address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

func (t *TCPTransport) acceptLoop() {
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		t.next++
		id := t.next
		tc := &tcpConn{c: c}
		t.conns[id] = tc
		t.mu.Unlock()
		go t.readLoop(tc, id, func(error) {
			t.mu.Lock()
			delete(t.conns, id)
			t.mu.Unlock()
			tc.c.Close()
		})
	}
}

// readLoop pumps one socket into the inbox: the accepted side's loop
// (id is the reply token its frames carry) and, with id 0, the dialed
// side's. Frames already sitting in the read buffer are delivered as
// one batch — the socket-side mirror of the senders' batching — and
// both the batch slice and the frame buffers come from the pool. A read
// error ends the loop after everything parsed before it is delivered:
// frames a dying peer got onto the wire are live roundtrips. onExit
// runs last, with the read error, or nil when the transport closed.
func (t *TCPTransport) readLoop(tc *tcpConn, id uint64, onExit func(err error)) {
	rd := bufio.NewReaderSize(tc.c, 64*1024)
	h := hand{pool: &t.stock}
	for {
		batch, err := h.readBatch(rd, id)
		if len(batch) > 0 {
			select {
			case t.inbox <- batch:
			case <-t.closed:
				onExit(nil)
				return
			}
		}
		if err != nil {
			onExit(err)
			return
		}
	}
}

// readBatch reads the frames sitting in rd — at least one, blocking for
// it — as one batch with reply token conn. It draws on the hand only
// once a frame is there and releases it before returning, counting each
// miss in readAllocs. Frames parsed before a read error come with it.
func (h *hand) readBatch(rd *bufio.Reader, conn uint64) ([]InFrame, error) {
	if _, err := rd.Peek(4); err != nil {
		return nil, err
	}
	defer h.release()
	batch := take(h, &h.slabs, tcpBatch)
	if batch == nil {
		h.pool.readAllocs.Add(1)
		batch = make([]InFrame, 0, tcpBatch)
	}
	for {
		buf := take(h, &h.bufs, 0)
		data, err := readFrame(rd, buf)
		if err != nil {
			return batch, err
		}
		if cap(buf) < len(data) {
			h.pool.readAllocs.Add(1)
		}
		batch = append(batch, InFrame{Data: data, Conn: conn})
		if len(batch) == tcpBatch || rd.Buffered() < 4 {
			return batch, nil
		}
	}
}

// peer returns the link to a shard. A virgin link (never connected) is
// dialed inline, waiting with backoff for a daemon that has not come up
// yet; a link that was up and broke fails fast with *PeerDownError and
// leaves reconnection to the background redialer.
func (t *TCPTransport) peer(to int) (*tcpConn, error) {
	if to < 0 || to >= len(t.addrs) {
		return nil, fmt.Errorf("cluster: send to unknown shard %d (cluster has %d)", to, len(t.addrs))
	}
	t.mu.Lock()
	p := &t.peers[to]
	if c := p.conn; c != nil {
		t.mu.Unlock()
		return c, nil
	}
	if p.everUp {
		err := &PeerDownError{Shard: to, Err: p.lastErr}
		t.mu.Unlock()
		return nil, err
	}
	t.mu.Unlock()
	var lastErr error
	for i := 0; i < tcpDialRetries; i++ {
		select {
		case <-t.closed:
			return nil, ErrClosed
		default:
		}
		if c, err := t.dialPeer(to); err == nil || err == ErrClosed {
			return c, err
		} else {
			lastErr = err
		}
		time.Sleep(tcpDialBackoff)
	}
	return nil, fmt.Errorf("cluster: shard %d unreachable at %s: %w", to, t.addrs[to], lastErr)
}

// dialPeer attempts one dial and, on success, installs the conn as the
// link (unless another goroutine already did, or Close ran meanwhile).
func (t *TCPTransport) dialPeer(to int) (*tcpConn, error) {
	c, err := net.Dial("tcp", t.addrs[to])
	if err != nil {
		return nil, err
	}
	select {
	case <-t.closed:
		// Close ran while we were dialing; registering the conn
		// now would leak it past Close's cleanup loop.
		c.Close()
		return nil, ErrClosed
	default:
	}
	t.mu.Lock()
	p := &t.peers[to]
	if p.conn == nil {
		link := &tcpConn{c: c}
		p.conn = link
		p.everUp = true
		p.lastErr = nil
		go t.readLoop(link, 0, func(err error) { t.peerReadFailed(to, link, err) })
	} else {
		c.Close() // another goroutine won the race
	}
	tc := p.conn
	t.mu.Unlock()
	return tc, nil
}

// peerReadFailed ends the dialed side's read loop. The protocol is
// symmetric, so any frames the peer writes back on the link are
// delivered like accepted-side traffic; mostly, though, the blocking
// Read is how peer death reaches this side between writes. Without it a
// dead peer is only discovered when a later write trips over the reset
// — and a send wedged mid-batch against full socket buffers never gets
// that far. The read error marks the peer down at once, and
// markPeerDown's conn close unblocks any write in flight, so the wedged
// SendBatch fails typed (*PeerDownError) instead of hanging.
func (t *TCPTransport) peerReadFailed(to int, tc *tcpConn, err error) {
	select {
	case <-t.closed:
		return // transport shutdown, not a peer flap
	default:
	}
	t.markPeerDown(to, tc, fmt.Errorf("cluster: peer link read: %w", err))
}

// markPeerDown transitions a link out of the up state after a write
// failure. Idempotent under races via conn pointer equality: of several
// workers failing on the same dead conn, only the first records the
// error and starts the (single) background redialer; a worker failing
// on a conn that has already been replaced changes nothing.
func (t *TCPTransport) markPeerDown(to int, tc *tcpConn, err error) {
	t.mu.Lock()
	p := &t.peers[to]
	if p.conn != tc {
		t.mu.Unlock()
		return
	}
	p.conn = nil
	p.lastErr = err
	t.peerDowns.Add(1)
	if !p.redialing {
		p.redialing = true
		go t.redialPeer(to)
	}
	t.mu.Unlock()
	tc.c.Close()
}

// redialPeer repairs a down link off the serving path, retrying with
// backoff until the peer answers or the transport closes.
func (t *TCPTransport) redialPeer(to int) {
	defer func() {
		t.mu.Lock()
		t.peers[to].redialing = false
		t.mu.Unlock()
	}()
	for {
		select {
		case <-t.closed:
			return
		default:
		}
		t.redials.Add(1)
		if _, err := t.dialPeer(to); err == nil || err == ErrClosed {
			return
		}
		select {
		case <-t.closed:
			return
		case <-time.After(tcpDialBackoff):
		}
	}
}

// Send delivers one frame, which stays its caller's: the pool takes
// nothing. A send to this shard itself loops back through the inbox.
func (t *TCPTransport) Send(to int, frame []byte) error {
	return t.deliver(to, []InFrame{{Data: frame}}, nil)
}

// SendBatch implements Transport: one socket write carries the whole
// batch of length-prefixed frames, and the batch slice and its frame
// buffers go to the pool.
func (t *TCPTransport) SendBatch(to int, frames []InFrame) error {
	if len(frames) == 0 {
		return nil
	}
	return t.deliver(to, frames, &t.stock)
}

// deliver routes one batch: into the inbox for this shard itself (the
// receiver now owns the frames), else through the peer's socket, which
// leaves them to recycle whether or not the peer is there to take them.
func (t *TCPTransport) deliver(to int, frames []InFrame, recycle *framePool) error {
	if to == t.shard {
		select {
		case t.inbox <- frames:
			return nil
		case <-t.closed:
			return ErrClosed
		}
	}
	p, err := t.peer(to)
	if err != nil {
		recycle.put(frames)
		return err
	}
	if err := t.write(p, frames, recycle); err != nil {
		t.markPeerDown(to, p, err)
		return &PeerDownError{Shard: to, Err: err}
	}
	return nil
}

// write is the transport's one socket-write site, counted: the frames
// as one write. They are dead once assembled — their bytes are in wbuf —
// so that is when recycle takes them, before the write: a buffer is back
// in circulation while the kernel still copies, and nothing of the batch
// is touched after the peer can have seen it.
func (t *TCPTransport) write(tc *tcpConn, frames []InFrame, recycle *framePool) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	buf := tc.wbuf[:0]
	for i := range frames {
		buf = appendFrame(buf, frames[i].Data)
	}
	tc.wbuf = buf
	recycle.put(frames)
	if _, err := tc.c.Write(buf); err != nil {
		return err
	}
	t.writes.Add(1)
	t.framesWritten.Add(int64(len(frames)))
	return nil
}

// ReplyBatch implements Transport: one socket write carries the whole
// batch back to an accepted connection, and — delivered or not — the
// batch slice and its frame buffers go to the pool.
func (t *TCPTransport) ReplyBatch(conn uint64, frames []InFrame) error {
	if len(frames) == 0 {
		return nil
	}
	t.mu.Lock()
	tc := t.conns[conn]
	t.mu.Unlock()
	if tc == nil {
		t.stock.put(frames)
		return fmt.Errorf("cluster: reply to closed connection %d", conn)
	}
	return t.write(tc, frames, &t.stock)
}

// ReadAllocs reports how many batch slices and frame buffers the read
// loops had to cut for want of a pooled one. Safe to call concurrently
// with serving.
func (t *TCPTransport) ReadAllocs() int64 { return t.stock.readAllocs.Load() }

func (t *TCPTransport) pool() *framePool { return &t.stock }

// CloseAccept stops accepting new connections without disturbing the
// ones already up: the first stage of a graceful shutdown, where the
// daemon drains in-flight roundtrips before Close tears the rest down.
// Idempotent; Close after CloseAccept closes the listener again, which
// is a no-op.
func (t *TCPTransport) CloseAccept() error {
	return t.ln.Close()
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		close(t.closed)
		t.ln.Close()
		t.mu.Lock()
		for _, tc := range t.conns {
			tc.c.Close()
		}
		for i := range t.peers {
			if tc := t.peers[i].conn; tc != nil {
				tc.c.Close()
			}
		}
		t.mu.Unlock()
	})
	return nil
}
