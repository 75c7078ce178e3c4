package obs

import "runtime/metrics"

// RuntimeStats is a point-in-time reading of the process-global Go
// runtime accounting the perf report cares about. All fields are
// cumulative since process start; subtract two readings for a campaign
// delta.
type RuntimeStats struct {
	AllocBytes   uint64 // /gc/heap/allocs:bytes
	AllocObjects uint64 // /gc/heap/allocs:objects
	GCCycles     uint64 // /gc/cycles/total:gc-cycles
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

// ReadRuntimeStats samples the runtime/metrics counters behind
// RuntimeStats. The readings are process-global, not per-goroutine — the
// runner snapshots them around a whole campaign, so the difference is that
// campaign's alone only while no other campaign allocates in the process.
func ReadRuntimeStats() RuntimeStats {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var rs RuntimeStats
	for i, s := range samples {
		if s.Value.Kind() != metrics.KindUint64 {
			continue
		}
		switch runtimeSampleNames[i] {
		case "/gc/heap/allocs:bytes":
			rs.AllocBytes = s.Value.Uint64()
		case "/gc/heap/allocs:objects":
			rs.AllocObjects = s.Value.Uint64()
		case "/gc/cycles/total:gc-cycles":
			rs.GCCycles = s.Value.Uint64()
		}
	}
	return rs
}

// Sub returns the component-wise difference rs − prev.
func (rs RuntimeStats) Sub(prev RuntimeStats) RuntimeStats {
	return RuntimeStats{
		AllocBytes:   rs.AllocBytes - prev.AllocBytes,
		AllocObjects: rs.AllocObjects - prev.AllocObjects,
		GCCycles:     rs.GCCycles - prev.GCCycles,
	}
}
