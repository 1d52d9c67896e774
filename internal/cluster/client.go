package cluster

import (
	"bufio"
	"fmt"
	"net"

	"rtroute/internal/churn"
	"rtroute/internal/core"
	"rtroute/internal/wire"
)

// Client is a roundtrip client of a TCP cluster: it dials any shard
// daemon, asks it to describe the deployment, and injects roundtrips.
// The dialed shard stamps each inject with a reply route and — when the
// source node lives elsewhere — re-routes it to the owner, so a client
// needs one connection to one daemon, not the whole address list. The
// completion report always comes back on this connection.
//
// A Client is not safe for concurrent use; open one per goroutine (the
// daemons multiplex any number). Within one goroutine it pipelines:
// Roundtrips keeps a window of tagged roundtrips in flight and accepts
// their completions in whatever order the cluster finishes them.
type Client struct {
	conn net.Conn
	tc   *tcpConn
	rd   *bufio.Reader
	buf  []byte // reusable frame marshal buffer
	rbuf []byte // reusable received-frame buffer: every decoder copies out

	// OnDrop, when non-nil, accepts lossy completions: a cluster
	// converging under churn reports a dropped or misrouted roundtrip
	// with a FrameDrop instead of a FrameDone, and Roundtrips invokes
	// OnDrop with the pair's index and the wire drop reason. When nil, a
	// drop report is an error — the legacy strict contract.
	OnDrop func(i int, reason byte) error
}

// DialClient connects to one shard daemon.
func DialClient(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// The read buffer matches the daemons': one read takes in everything
	// a batched reply write delivered.
	return &Client{conn: conn, tc: &tcpConn{c: conn}, rd: bufio.NewReaderSize(conn, 64*1024)}, nil
}

// read returns the next frame segment, valid until the next read.
func (c *Client) read() ([]byte, error) {
	data, err := readFrame(c.rd, c.rbuf)
	if err == nil {
		c.rbuf = data
	}
	return data, err
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) send(f *wire.Frame) error {
	data, err := wire.AppendFrame(c.buf[:0], f)
	if err != nil {
		return err
	}
	c.buf = data
	return c.tc.writeFrame(data)
}

func (c *Client) recv(want wire.FrameKind, f *wire.Frame) error {
	data, err := c.read()
	if err != nil {
		return err
	}
	if err := wire.UnmarshalFrame(data, f); err != nil {
		return err
	}
	if f.Kind != want {
		return fmt.Errorf("cluster: expected %d frame, got %d", want, f.Kind)
	}
	return nil
}

// Info asks the dialed shard what it serves.
func (c *Client) Info() (kind core.Kind, nodes, shards int, err error) {
	if err := c.send(&wire.Frame{Kind: wire.FrameInfoReq}); err != nil {
		return 0, 0, 0, err
	}
	var f wire.Frame
	if err := c.recv(wire.FrameInfo, &f); err != nil {
		return 0, 0, 0, err
	}
	return f.SchemeKind, int(f.Nodes), int(f.Shards), nil
}

// Pair is one requested roundtrip src -> dst -> src.
type Pair struct {
	Src, Dst int32
}

// injectBatchCap bounds how many injects share one socket write in
// Roundtrips; beyond this, batching buys nothing and only delays the
// first inject behind the encoding of the rest.
const injectBatchCap = 64

// Roundtrips pipelines the pairs through the cluster, keeping up to
// window of them in flight at once. Each inject is tagged with a
// roundtrip id (its index, plus one so the tag is never zero) which the
// cluster echoes on the completion report, so completions are accepted
// in whatever order the shards finish them; each is invoked once per
// pair, in completion order, with the pair's index and leg totals.
//
// The loop drains before it refills: it blocks for one completion, then
// takes every further completion its read buffer already holds — the
// daemons write a drained batch's replies as one message — and only then
// injects for all the slots that opened, as one socket write per
// injectBatchCap of them. With one roundtrip in flight the buffer is
// empty after each completion, so the next inject leaves at once and
// window-1 latency is what it was when every completion refilled alone.
func (c *Client) Roundtrips(pairs []Pair, window int, each func(i int, out, back wire.LegTotals) error) error {
	if window < 1 {
		window = 1
	}
	seen := make([]bool, len(pairs))
	entries := make([]wire.InjectEntry, 0, injectBatchCap)
	next, done, inflight := 0, 0, 0
	var f wire.Frame
	for done < len(pairs) {
		for next < len(pairs) && inflight < window {
			entries = entries[:0]
			for next < len(pairs) && inflight < window && len(entries) < injectBatchCap {
				entries = append(entries, wire.InjectEntry{
					Src: pairs[next].Src, Dst: pairs[next].Dst, Rt: uint64(next) + 1,
				})
				next++
				inflight++
			}
			c.buf = wire.AppendInjectBatch(c.buf[:0], wire.HomeClient, 0, entries)
			if err := c.tc.writeFrame(c.buf); err != nil {
				return err
			}
		}
		for {
			if err := c.recvCompletion(&f); err != nil {
				return err
			}
			if f.Rt == 0 || f.Rt > uint64(len(pairs)) {
				return fmt.Errorf("cluster: completion with unknown roundtrip id %d", f.Rt)
			}
			i := int(f.Rt - 1)
			if seen[i] {
				return fmt.Errorf("cluster: duplicate completion for roundtrip %d", f.Rt)
			}
			if f.SrcName != pairs[i].Src || f.DstName != pairs[i].Dst {
				return fmt.Errorf("cluster: completion %d for (%d,%d), expected (%d,%d)",
					f.Rt, f.SrcName, f.DstName, pairs[i].Src, pairs[i].Dst)
			}
			seen[i] = true
			done++
			inflight--
			if f.Kind == wire.FrameDrop {
				if err := c.OnDrop(i, f.Reason); err != nil {
					return err
				}
			} else if each != nil {
				if err := each(i, f.Out, f.Back); err != nil {
					return err
				}
			}
			if done == len(pairs) || c.rd.Buffered() < 4 {
				break
			}
		}
	}
	return nil
}

// recvCompletion reads the next completion report: a FrameDone, or —
// when OnDrop is set — a FrameDrop from a cluster converging under
// churn.
func (c *Client) recvCompletion(f *wire.Frame) error {
	data, err := c.read()
	if err != nil {
		return err
	}
	if err := wire.UnmarshalFrame(data, f); err != nil {
		return err
	}
	switch {
	case f.Kind == wire.FrameDone:
		return nil
	case f.Kind == wire.FrameDrop && c.OnDrop != nil:
		return nil
	case f.Kind == wire.FrameDrop:
		return fmt.Errorf("cluster: roundtrip %d dropped (reason %d) but the client has no OnDrop hook", f.Rt, f.Reason)
	default:
		return fmt.Errorf("cluster: expected %d frame, got %d", wire.FrameDone, f.Kind)
	}
}

// Churn ships one churn event batch to the dialed daemon and blocks
// until the daemon acknowledges having applied the repair (an empty
// batch echoing the sequence number). Sequence numbers start at 1 and
// must increase by one per call — the daemon applies batches in order.
func (c *Client) Churn(seq uint64, events []churn.Event) error {
	c.buf = wire.AppendChurnFrame(c.buf[:0], seq, events)
	if err := c.tc.writeFrame(c.buf); err != nil {
		return err
	}
	data, err := c.read()
	if err != nil {
		return err
	}
	ackSeq, ackEvs, err := wire.DecodeChurnFrame(data, nil)
	if err != nil {
		return fmt.Errorf("cluster: churn ack: %w", err)
	}
	if ackSeq != seq || len(ackEvs) != 0 {
		return fmt.Errorf("cluster: churn ack for batch %d carries seq %d, %d events", seq, ackSeq, len(ackEvs))
	}
	return nil
}
