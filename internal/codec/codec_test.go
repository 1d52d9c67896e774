package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"rtroute/internal/cover"
	"rtroute/internal/rtz"
	"rtroute/internal/tree"
)

// The per-value reference: one binary.AppendVarint or AppendUvarint per
// field, the layout TreeLabel, RTZLabel and Handshake document.
func refLabel(b []byte, l tree.Label) []byte {
	b = binary.AppendVarint(b, int64(l.Tin))
	b = binary.AppendUvarint(b, uint64(len(l.Light)))
	prev := int64(0)
	for _, h := range l.Light {
		b = binary.AppendVarint(b, int64(h.BranchTin)-prev)
		prev = int64(h.BranchTin)
		b = binary.AppendVarint(b, int64(h.Port))
	}
	return b
}

func refRTZLabel(b []byte, l rtz.Label) []byte {
	b = binary.AppendVarint(b, int64(l.Node))
	b = binary.AppendVarint(b, int64(l.CenterIdx))
	b = binary.AppendVarint(b, int64(l.Center))
	return refLabel(b, l.TreeLabel)
}

func refHandshake(b []byte, hs rtz.Handshake) []byte {
	b = binary.AppendVarint(b, int64(hs.Ref.Level))
	b = binary.AppendVarint(b, int64(hs.Ref.Index))
	return refLabel(refLabel(b, hs.ULabel), hs.VLabel)
}

// boundaries are the values whose zigzag or plain varint sits at the
// edge of a width: one more or less changes the byte count.
var boundaries = []int32{63, 64, -64, -65, 127, 128, 8191, 8192, -8192, -8193, 1<<20 - 1, 1 << 20}

// value draws an int32 from every width class: one byte, multi-byte,
// negative, a width's edge and the extremes.
func value(rng *rand.Rand) int32 {
	switch rng.Intn(7) {
	case 0:
		return int32(rng.Intn(64))
	case 1:
		return -int32(rng.Intn(64))
	case 2:
		return int32(rng.Intn(1 << 20))
	case 3:
		return -int32(rng.Intn(1 << 20))
	case 4:
		return boundaries[rng.Intn(len(boundaries))]
	case 5:
		return math.MaxInt32 - int32(rng.Intn(3))
	default:
		return math.MinInt32 + int32(rng.Intn(3))
	}
}

func randomLabel(rng *rand.Rand) tree.Label {
	l := tree.Label{Tin: value(rng)}
	switch n := rng.Intn(8); {
	case n == 0: // nil Light
	case n == 1:
		l.Light = []tree.LightHop{} // empty, not nil: the same bytes
	default:
		l.Light = make([]tree.LightHop, n-1)
		for i := range l.Light {
			l.Light[i] = tree.LightHop{BranchTin: value(rng), Port: value(rng)}
		}
	}
	return l
}

// checkWriters encodes each value with the one-grow writers after prefix
// and compares the bytes with the per-value reference; then decodes them.
func checkWriters(t *testing.T, prefix []byte, l tree.Label, rl rtz.Label, hs rtz.Handshake) {
	t.Helper()
	for _, c := range []struct {
		name      string
		write     func(e *Encoder)
		ref       func(b []byte) []byte
		roundtrip func(d *Decoder) error
	}{
		{"TreeLabel", func(e *Encoder) { e.TreeLabel(l) }, func(b []byte) []byte { return refLabel(b, l) },
			func(d *Decoder) error {
				got, err := d.TreeLabel()
				if err == nil && !sameLabel(got, l) {
					t.Errorf("TreeLabel decodes to %+v, encoded %+v", got, l)
				}
				return err
			}},
		{"RTZLabel", func(e *Encoder) { e.RTZLabel(rl) }, func(b []byte) []byte { return refRTZLabel(b, rl) },
			func(d *Decoder) error {
				got, err := d.RTZLabel()
				if err == nil && (got.Node != rl.Node || got.CenterIdx != rl.CenterIdx || got.Center != rl.Center || !sameLabel(got.TreeLabel, rl.TreeLabel)) {
					t.Errorf("RTZLabel decodes to %+v, encoded %+v", got, rl)
				}
				return err
			}},
		{"Handshake", func(e *Encoder) { e.Handshake(hs) }, func(b []byte) []byte { return refHandshake(b, hs) },
			func(d *Decoder) error {
				got, err := d.Handshake()
				if err == nil && (got.Ref != hs.Ref || !sameLabel(got.ULabel, hs.ULabel) || !sameLabel(got.VLabel, hs.VLabel)) {
					t.Errorf("Handshake decodes to %+v, encoded %+v", got, hs)
				}
				return err
			}},
	} {
		e := &Encoder{Buf: append([]byte(nil), prefix...)}
		c.write(e)
		want := c.ref(append([]byte(nil), prefix...))
		if !bytes.Equal(e.Buf, want) {
			t.Fatalf("%s: writer gives % x, per-value encoding % x", c.name, e.Buf, want)
		}
		d := &Decoder{Data: e.Buf, Off: len(prefix)}
		if err := c.roundtrip(d); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := d.Done(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

func sameLabel(a, b tree.Label) bool {
	if a.Tin != b.Tin || len(a.Light) != len(b.Light) {
		return false
	}
	for i := range a.Light {
		if a.Light[i] != b.Light[i] {
			return false
		}
	}
	return true
}

func TestLabelWritersMatchPerValueEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		prefix := make([]byte, rng.Intn(4))
		rng.Read(prefix)
		rl := rtz.Label{Node: value(rng), CenterIdx: value(rng), Center: value(rng), TreeLabel: randomLabel(rng)}
		hs := rtz.Handshake{Ref: cover.TreeRef{Level: value(rng), Index: value(rng)}, ULabel: randomLabel(rng), VLabel: randomLabel(rng)}
		checkWriters(t, prefix, randomLabel(rng), rl, hs)
	}
}

// FuzzLabelWriter drives the one-grow writers with labels drawn from the
// fuzzed seed and fields; every encoding must equal the per-value one.
func FuzzLabelWriter(f *testing.F) {
	f.Add(int64(1), int32(0), int32(0), uint8(0))
	f.Add(int64(2), int32(-1), int32(300), uint8(3))
	f.Add(int64(3), int32(math.MinInt32), int32(math.MaxInt32), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, level, index int32, prefix uint8) {
		rng := rand.New(rand.NewSource(seed))
		l := randomLabel(rng)
		rl := rtz.Label{Node: level, CenterIdx: index, Center: value(rng), TreeLabel: l}
		hs := rtz.Handshake{Ref: cover.TreeRef{Level: level, Index: index}, ULabel: randomLabel(rng), VLabel: l}
		checkWriters(t, bytes.Repeat([]byte{prefix}, int(prefix%5)), l, rl, hs)
	})
}
