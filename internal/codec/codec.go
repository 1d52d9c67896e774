// Package codec holds the primitives of the wire format: varints, bools
// and raw bytes, the strict bounds-checked decoder with its count guards,
// and the value codecs of the tree, rtz and cover types that scheme
// sections and flight frames share. It sits below both internal/core,
// whose schemes encode and decode their own per-node sections, and
// internal/wire, which frames them; see package wire for the layout.
//
// All integers are varints: unsigned counts as uvarint, signed values
// zigzag. A decode error reads "wire: offset N: ...", N counted from the
// start of the Decoder's Data.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"rtroute/internal/cover"
	"rtroute/internal/rtz"
	"rtroute/internal/tree"
)

// MaxNodes caps the node count a scheme blob may declare, far above any
// graph this repository can build but low enough to bound hostile
// allocation.
const MaxNodes = 1 << 24

// Encoder appends values to Buf.
type Encoder struct {
	Buf []byte
}

// U appends an unsigned varint. Header fields are overwhelmingly tiny
// (names, ports, DFS-time deltas), so the single-byte case is inlined;
// the slow path is bit-identical binary.AppendUvarint.
func (e *Encoder) U(v uint64) {
	if v < 0x80 {
		e.Buf = append(e.Buf, byte(v))
		return
	}
	e.Buf = binary.AppendUvarint(e.Buf, v)
}

// I appends a zigzag-encoded signed varint (the explicit zigzag is
// byte-identical to binary.AppendVarint).
func (e *Encoder) I(v int64) { e.U(uint64(v<<1) ^ uint64(v>>63)) }

// B appends a bool byte.
func (e *Encoder) B(v bool) {
	if v {
		e.Buf = append(e.Buf, 1)
	} else {
		e.Buf = append(e.Buf, 0)
	}
}

// Byte1 appends one raw byte.
func (e *Encoder) Byte1(v byte) { e.Buf = append(e.Buf, v) }

// Decoder reads values from Data at Off.
type Decoder struct {
	Data []byte
	Off  int
	// Light, when non-nil, supplies the root paths of decoded tree labels
	// (set for flight sections, nil for snapshots, whose labels are kept).
	Light *Arena[tree.LightHop]
}

// Fail returns a decode error at the current offset.
func (d *Decoder) Fail(format string, args ...any) error {
	return fmt.Errorf("wire: offset %d: %s", d.Off, fmt.Sprintf(format, args...))
}

// Remaining is the number of bytes not yet read.
func (d *Decoder) Remaining() int { return len(d.Data) - d.Off }

// U reads an unsigned varint.
func (d *Decoder) U() (uint64, error) {
	// Single-byte fast path; the slow path reads the identical format.
	if d.Off < len(d.Data) {
		if b := d.Data[d.Off]; b < 0x80 {
			d.Off++
			return uint64(b), nil
		}
	}
	v, n := binary.Uvarint(d.Data[d.Off:])
	if n <= 0 {
		return 0, d.Fail("truncated or oversized uvarint")
	}
	d.Off += n
	return v, nil
}

// I reads a zigzag-encoded signed varint.
func (d *Decoder) I() (int64, error) {
	ux, err := d.U()
	if err != nil {
		return 0, d.Fail("truncated or oversized varint")
	}
	return int64(ux>>1) ^ -int64(ux&1), nil
}

// I32 decodes a signed varint that must fit int32.
func (d *Decoder) I32() (int32, error) {
	v, err := d.I()
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, d.Fail("value %d outside int32", v)
	}
	return int32(v), nil
}

// B reads a bool byte, refusing any byte but 0 and 1.
func (d *Decoder) B() (bool, error) {
	v, err := d.Byte1()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, d.Fail("invalid bool byte %d", v)
	}
}

// Byte1 reads one raw byte.
func (d *Decoder) Byte1() (byte, error) {
	if d.Off >= len(d.Data) {
		return 0, d.Fail("truncated")
	}
	v := d.Data[d.Off]
	d.Off++
	return v, nil
}

// Count decodes an element count and validates it against the remaining
// input: each element occupies at least minBytes bytes, so a hostile
// count can never drive an allocation beyond O(len(input)).
func (d *Decoder) Count(minBytes int) (int, error) {
	v, err := d.U()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(d.Remaining()/minBytes) {
		return 0, d.Fail("count %d exceeds remaining input (%d bytes, >= %d per element)",
			v, d.Remaining(), minBytes)
	}
	return int(v), nil
}

// Done rejects trailing garbage.
func (d *Decoder) Done() error {
	if d.Remaining() != 0 {
		return d.Fail("%d trailing bytes", d.Remaining())
	}
	return nil
}

// --- tree, rtz and cover values ---

// TreeLabel encodes a tree address with its structure exploited: light
// hops carry strictly ascending DFS entry times down the root path, so
// every hop after the first stores only the (small) delta — the widths
// that would otherwise grow with log n collapse to a byte or two.
//
// The label writers below grow Buf once per value, to the value's widest
// encoding, and write its varints by index; the bytes are exactly those
// of one U or I call per field.
func (e *Encoder) TreeLabel(l tree.Label) {
	b, i := e.reserve(labelMax(l))
	e.Buf = b[:putLabel(b, i, l)]
}

// maxVarint32 is the widest varint of a value that fits 33 bits: an
// int32, a zigzagged int32 or the difference of two int32s.
const maxVarint32 = 5

// labelMax bounds the encoded length of l.
func labelMax(l tree.Label) int {
	return maxVarint32 + binary.MaxVarintLen64 + 2*maxVarint32*len(l.Light)
}

// reserve grows Buf by at least extra bytes and returns it resliced to
// its capacity, with the write index at its old length.
func (e *Encoder) reserve(extra int) ([]byte, int) {
	i := len(e.Buf)
	e.Buf = slices.Grow(e.Buf, extra)
	return e.Buf[:cap(e.Buf)], i
}

// putU writes v as an unsigned varint at b[i:], which must have room,
// and returns the index past it: binary.PutUvarint, kept inlinable.
func putU(b []byte, i int, v uint64) int {
	for v >= 0x80 {
		b[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	b[i] = byte(v)
	return i + 1
}

// putI writes v zigzagged, as I does.
func putI(b []byte, i int, v int64) int { return putU(b, i, uint64(v<<1)^uint64(v>>63)) }

// putLabel writes l as TreeLabel does.
func putLabel(b []byte, i int, l tree.Label) int {
	i = putI(b, i, int64(l.Tin))
	i = putU(b, i, uint64(len(l.Light)))
	prev := int64(0)
	for _, h := range l.Light {
		i = putI(b, i, int64(h.BranchTin)-prev)
		prev = int64(h.BranchTin)
		i = putI(b, i, int64(h.Port))
	}
	return i
}

func (d *Decoder) TreeLabel() (tree.Label, error) {
	var l tree.Label
	tin, err := d.I32()
	if err != nil {
		return l, err
	}
	l.Tin = tin
	if l.Light, err = d.LightHops(); err != nil {
		return l, err
	}
	return l, nil
}

func (d *Decoder) LightHops() ([]tree.LightHop, error) {
	c, err := d.Count(2)
	if err != nil {
		return nil, err
	}
	if c == 0 {
		return nil, nil
	}
	var light []tree.LightHop
	if d.Light != nil {
		light = d.Light.Take(c)
	} else {
		light = make([]tree.LightHop, c)
	}
	prev := int64(0)
	for i := range light {
		dv, err := d.I()
		if err != nil {
			return nil, err
		}
		if i > 0 {
			dv += prev
		}
		if dv < math.MinInt32 || dv > math.MaxInt32 {
			return nil, d.Fail("branch tin %d outside int32", dv)
		}
		light[i].BranchTin = int32(dv)
		prev = dv
		if light[i].Port, err = d.I32(); err != nil {
			return nil, err
		}
	}
	return light, nil
}

// TreeState encodes the O(1) per-tree node state with the DFS-interval
// structure exploited: Tout >= Tin always (leaves store the common 0
// delta in one byte), and the heavy child's interval — all zeros on
// leaves — is encoded relative to the parent's only when present.
func (e *Encoder) TreeState(s tree.State) {
	e.I(int64(s.Tin))
	e.U(uint64(int64(s.Tout) - int64(s.Tin)))
	e.I(int64(s.HeavyPort))
	if s.HeavyPort >= 0 {
		e.I(int64(s.HeavyTin) - int64(s.Tin))
		e.U(uint64(int64(s.HeavyTout) - int64(s.HeavyTin)))
	}
}

func (d *Decoder) TreeState() (tree.State, error) {
	var s tree.State
	var err error
	if s.Tin, err = d.I32(); err != nil {
		return s, err
	}
	span, err := d.U()
	if err != nil {
		return s, err
	}
	tout := int64(s.Tin) + int64(span)
	if tout > math.MaxInt32 {
		return s, d.Fail("tout %d outside int32", tout)
	}
	s.Tout = int32(tout)
	if s.HeavyPort, err = d.I32(); err != nil {
		return s, err
	}
	if s.HeavyPort >= 0 {
		dv, err := d.I()
		if err != nil {
			return s, err
		}
		htin := int64(s.Tin) + dv
		if htin < math.MinInt32 || htin > math.MaxInt32 {
			return s, d.Fail("heavy tin %d outside int32", htin)
		}
		s.HeavyTin = int32(htin)
		hspan, err := d.U()
		if err != nil {
			return s, err
		}
		htout := htin + int64(hspan)
		if htout > math.MaxInt32 {
			return s, d.Fail("heavy tout %d outside int32", htout)
		}
		s.HeavyTout = int32(htout)
	}
	return s, nil
}

func (e *Encoder) RTZLabel(l rtz.Label) {
	b, i := e.reserve(3*maxVarint32 + labelMax(l.TreeLabel))
	i = putI(b, i, int64(l.Node))
	i = putI(b, i, int64(l.CenterIdx))
	i = putI(b, i, int64(l.Center))
	e.Buf = b[:putLabel(b, i, l.TreeLabel)]
}

func (d *Decoder) RTZLabel() (rtz.Label, error) {
	var l rtz.Label
	var err error
	if l.Node, err = d.I32(); err != nil {
		return l, err
	}
	if l.CenterIdx, err = d.I32(); err != nil {
		return l, err
	}
	if l.Center, err = d.I32(); err != nil {
		return l, err
	}
	if l.TreeLabel, err = d.TreeLabel(); err != nil {
		return l, err
	}
	return l, nil
}

func (e *Encoder) TreeRef(r cover.TreeRef) {
	e.I(int64(r.Level))
	e.I(int64(r.Index))
}

func (d *Decoder) TreeRef() (cover.TreeRef, error) {
	var r cover.TreeRef
	var err error
	if r.Level, err = d.I32(); err != nil {
		return r, err
	}
	if r.Index, err = d.I32(); err != nil {
		return r, err
	}
	return r, nil
}

func (e *Encoder) Handshake(hs rtz.Handshake) {
	b, i := e.reserve(2*maxVarint32 + labelMax(hs.ULabel) + labelMax(hs.VLabel))
	i = putI(b, i, int64(hs.Ref.Level))
	i = putI(b, i, int64(hs.Ref.Index))
	i = putLabel(b, i, hs.ULabel)
	e.Buf = b[:putLabel(b, i, hs.VLabel)]
}

func (d *Decoder) Handshake() (rtz.Handshake, error) {
	var hs rtz.Handshake
	var err error
	if hs.Ref, err = d.TreeRef(); err != nil {
		return hs, err
	}
	if hs.ULabel, err = d.TreeLabel(); err != nil {
		return hs, err
	}
	if hs.VLabel, err = d.TreeLabel(); err != nil {
		return hs, err
	}
	return hs, nil
}

func (e *Encoder) HopLeg(h rtz.HopHeader) {
	e.TreeRef(h.Ref)
	e.TreeLabel(h.Target)
	e.B(h.Descending)
}

func (d *Decoder) HopLeg() (rtz.HopHeader, error) {
	var h rtz.HopHeader
	var err error
	if h.Ref, err = d.TreeRef(); err != nil {
		return h, err
	}
	if h.Target, err = d.TreeLabel(); err != nil {
		return h, err
	}
	if h.Descending, err = d.B(); err != nil {
		return h, err
	}
	return h, nil
}

// Arena hands out small carve-out slices of one backing array, recycled
// wholesale on Reset. Growing abandons the old array to any slices
// already carved from it (they stay valid until Reset).
type Arena[T any] struct{ buf []T }

// Take carves n elements.
func (a *Arena[T]) Take(n int) []T {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]T, 0, 2*(len(a.buf)+n)+16)
	}
	s := a.buf[len(a.buf) : len(a.buf)+n : len(a.buf)+n]
	a.buf = a.buf[:len(a.buf)+n]
	return s
}

// Reset recycles every slice carved so far.
func (a *Arena[T]) Reset() { a.buf = a.buf[:0] }
