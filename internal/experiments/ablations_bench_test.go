package experiments

import (
	"context"
	"sync"
	"testing"

	"witag/internal/sim"
)

// The ablation benchmarks, one per ablation: each prints its table once
// (on the first iteration) and reports domain metrics via
// b.ReportMetric, as the repository-root benchmarks do for the figures.

// printOnce gates table output so -benchtime iterations don't spam.
var printOnce sync.Map

func once(b *testing.B, key, table string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + table)
	}
}

func BenchmarkEncryptionTransparency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runAblation(context.Background(), sim.Runner{}, "crypto", 16, 120)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "encryption", res.Render())
		b.ReportMetric(res.Rows[2].BER, "BER-CCMP")
	}
}

func BenchmarkAblationSwitchMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runAblation(context.Background(), sim.Runner{}, "switch", 11, 200)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-switch", res.Render())
		b.ReportMetric(res.Rows[1].BER-res.Rows[0].BER, "BER-penalty")
	}
}

func BenchmarkAblationTriggerCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runAblation(context.Background(), sim.Runner{}, "trigger", 12, 100)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-trigger", res.Render())
	}
}

func BenchmarkAblationFEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runAblation(context.Background(), sim.Runner{}, "fec", 13, 5)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-fec", res.Render())
	}
}

func BenchmarkAblationAMPDUSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runAblation(context.Background(), sim.Runner{}, "ampdu", 14, 100)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-ampdu", res.Render())
	}
}

func BenchmarkAblationRobustRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runAblation(context.Background(), sim.Runner{}, "mcs", 15, 100)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-rate", res.Render())
	}
}
