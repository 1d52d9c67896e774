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
	poolBufs       = 16 * tcpBatch
	poolSlabs      = 64
)

// framePool closes the TCP buffer cycle. On a socket fabric a frame
// buffer dies when its bytes have been copied to the socket, and a new
// one is needed for every frame read; the pool carries the first to the
// second, so a steady stream allocates no buffer and no batch slice per
// frame. Both sides touch it once per batch, never per frame.
type framePool struct {
	mu    sync.Mutex
	bufs  [][]byte
	slabs [][]InFrame
}

// put takes back a batch whose bytes have been copied out (or refused):
// the frame buffers and the slice itself. The slice is not cleared — a
// read loop overwrites it from the front. A nil pool takes nothing: the
// frames stay their caller's.
func (p *framePool) put(frames []InFrame) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for i := range frames {
		if b := frames[i].Data; cap(b) >= minFrameCap && cap(b) <= maxPooledFrame && len(p.bufs) < poolBufs {
			p.bufs = append(p.bufs, b)
		}
	}
	if cap(frames) >= tcpBatch && len(p.slabs) < poolSlabs {
		p.slabs = append(p.slabs, frames[:0])
	}
	p.mu.Unlock()
}

// get hands a read loop what its next batch needs: an empty batch slice
// (nil when none is pooled: a lone frame then costs a one-element
// slice, not a full batch's) and its private stash of buffers topped up
// to a full batch's worth.
func (p *framePool) get(stash [][]byte) ([]InFrame, [][]byte) {
	var slab []InFrame
	p.mu.Lock()
	if n := len(p.slabs); n > 0 {
		slab, p.slabs = p.slabs[n-1], p.slabs[:n-1]
	}
	stash = p.topUp(stash)
	p.mu.Unlock()
	return slab, stash
}

// topUp moves pooled buffers into stash until it holds a full batch's
// worth; the caller holds p.mu.
func (p *framePool) topUp(stash [][]byte) [][]byte {
	if k := min(tcpBatch-len(stash), len(p.bufs)); k > 0 {
		stash = append(stash, p.bufs[len(p.bufs)-k:]...)
		p.bufs = p.bufs[:len(p.bufs)-k]
	}
	return stash
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

	inbox  chan []InFrame
	closed chan struct{}
	once   sync.Once

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

	pool framePool
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

// writeFrame sends one frame as one socket write assembled in wbuf.
func (p *tcpConn) writeFrame(frame []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wbuf = appendFrame(p.wbuf[:0], frame)
	_, err := p.c.Write(p.wbuf)
	return err
}

// appendFrame appends a frame as the wire carries it: 4-byte BE length, bytes.
func appendFrame(buf, frame []byte) []byte {
	return append(binary.BigEndian.AppendUint32(buf, uint32(len(frame))), frame...)
}

// writeFrames sends the frames as one socket write. They are dead once
// assembled — their bytes are in wbuf — so that is when recycle takes
// them, before the write: a buffer is back in circulation while the
// kernel still copies, and nothing of the batch is touched after the
// peer can have seen it.
func (p *tcpConn) writeFrames(frames []InFrame, recycle *framePool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	buf := p.wbuf[:0]
	for i := range frames {
		buf = appendFrame(buf, frames[i].Data)
	}
	p.wbuf = buf
	recycle.put(frames)
	_, err := p.c.Write(buf)
	return err
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
		c := minFrameCap
		for c < n {
			c <<= 1
		}
		buf = make([]byte, n, c)
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
		inbox:  make(chan []InFrame, 4096),
		closed: make(chan struct{}),
		peers:  make([]tcpPeer, len(addrs)),
		conns:  make(map[uint64]*tcpConn),
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
	var stash [][]byte
	for {
		var batch []InFrame
		batch, stash = t.pool.get(stash)
		var err error
		for {
			var buf []byte
			if n := len(stash); n > 0 {
				buf, stash = stash[n-1], stash[:n-1]
			}
			if buf, err = readFrame(rd, buf); err != nil {
				break
			}
			batch = append(batch, InFrame{Data: buf, Conn: id})
			if len(batch) == tcpBatch || rd.Buffered() < 4 {
				break
			}
		}
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

// Send implements Transport. A send to this shard itself loops back
// through the inbox without touching a socket.
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
	return t.deliver(to, frames, &t.pool)
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

// write is the transport's one socket-write site, counted.
func (t *TCPTransport) write(tc *tcpConn, frames []InFrame, recycle *framePool) error {
	if err := tc.writeFrames(frames, recycle); err != nil {
		return err
	}
	t.writes.Add(1)
	t.framesWritten.Add(int64(len(frames)))
	return nil
}

// Recv implements Transport.
func (t *TCPTransport) Recv() ([]InFrame, error) {
	select {
	case frames := <-t.inbox:
		return frames, nil
	case <-t.closed:
		return nil, ErrClosed
	}
}

// TryRecv implements Transport.
func (t *TCPTransport) TryRecv() ([]InFrame, bool, error) {
	select {
	case frames := <-t.inbox:
		return frames, true, nil
	case <-t.closed:
		return nil, false, ErrClosed
	default:
		return nil, false, nil
	}
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
		t.pool.put(frames)
		return fmt.Errorf("cluster: reply to closed connection %d", conn)
	}
	return t.write(tc, frames, &t.pool)
}

// spareBufs implements bufferSource: a worker whose own free list ran
// dry refills it from the pool, a batch's worth per lock.
func (t *TCPTransport) spareBufs(free [][]byte) [][]byte {
	t.pool.mu.Lock()
	free = t.pool.topUp(free)
	t.pool.mu.Unlock()
	return free
}

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
