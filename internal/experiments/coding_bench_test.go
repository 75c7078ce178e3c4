package experiments

import (
	"context"
	"testing"
)

// BenchmarkCodingTransfer times one transfer of the coding sweep per
// scheme — a 96-byte payload over one taped world of the office profile,
// as the sweep runs it — with its allocations, so make bench's archive
// carries the largest experiment's B/op and allocs/op.
func BenchmarkCodingTransfer(b *testing.B) {
	cfg := DefaultAdaptiveCodingConfig()
	prof := cfg.Profiles[1]
	const tr = 3
	for _, scheme := range CodingSchemes {
		b.Run(scheme, func(b *testing.B) {
			w := newPairedWorld(cfg, prof, tr)
			defer w.tape.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codingTransfer(context.Background(), cfg, prof, scheme, i, tr, nil, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
