package obs

import "runtime"

// RuntimeStats is a point-in-time reading of the process-global Go
// runtime accounting the perf report cares about. All fields are
// cumulative since process start; subtract two readings for a campaign
// delta.
type RuntimeStats struct {
	AllocBytes   uint64 // runtime.MemStats.TotalAlloc
	AllocObjects uint64 // runtime.MemStats.Mallocs
	GCCycles     uint64 // runtime.MemStats.NumGC
}

// ReadRuntimeStats reads the runtime.MemStats counters behind
// RuntimeStats. runtime.ReadMemStats stops the world and flushes every
// P's allocation cache first, so the counters are exact to the object;
// the runtime/metrics heap counters instead count a whole span as
// allocated when a P takes it, and moved in steps of up to 8 KiB. The
// readings are process-global, not per-goroutine — the runner reads them
// around a whole campaign, so the difference is that campaign's alone
// only while no other campaign allocates in the process.
func ReadRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{AllocBytes: ms.TotalAlloc, AllocObjects: ms.Mallocs, GCCycles: uint64(ms.NumGC)}
}

// Sub returns the component-wise difference rs − prev.
func (rs RuntimeStats) Sub(prev RuntimeStats) RuntimeStats {
	return RuntimeStats{
		AllocBytes:   rs.AllocBytes - prev.AllocBytes,
		AllocObjects: rs.AllocObjects - prev.AllocObjects,
		GCCycles:     rs.GCCycles - prev.GCCycles,
	}
}
