package wire

import "testing"

// BenchmarkMarshalScheme times the encode layer alone: one snapshot of a
// built paper scheme at n = 256 per op, its sections encoded on every
// core. Run it with
//
//	go test ./internal/wire -run '^$' -bench MarshalScheme -benchmem
func BenchmarkMarshalScheme(b *testing.B) {
	planes, _ := testPlanes(b, 256, 1)
	for _, name := range []string{"stretch6", "exstretch", "polystretch"} {
		p := planes[name]
		b.Run(name, func(b *testing.B) {
			size := 0
			for b.Loop() {
				blob, err := MarshalScheme(p)
				if err != nil {
					b.Fatal(err)
				}
				size = len(blob)
			}
			b.ReportMetric(float64(size), "B/snapshot")
		})
	}
}
