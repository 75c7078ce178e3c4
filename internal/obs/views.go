package obs

// Typed instrument views. Each instrumented package gets a struct of
// pre-resolved instruments so its hot path never does a map lookup; the
// names below are the complete metric namespace of the simulator and the
// single place it is defined.

// CoreMetrics instruments core.System.QueryRound. Its instruments, and
// the fault and traffic ones a round counts, have Lanes lanes: a system
// writes them every round, into its trace ID's lane (AddLane,
// ObserveLane), so concurrent trials do not share their cache lines.
type CoreMetrics struct {
	Rounds        *Counter   // completed query rounds
	Detections    *Counter   // rounds where the tag detected the trigger
	TriggerMisses *Counter   // rounds where it did not (noise or injected)
	BALosses      *Counter   // rounds erased by a lost block ACK
	SubframesOK   *Counter   // subframe verdicts: decoded at the AP
	SubframesLost *Counter   // subframe verdicts: lost
	Bits          *Counter   // tag bits carried across all rounds
	BitErrors     *Counter   // tag bit errors across all rounds
	BackoffSlots  *Counter   // DCF backoff slots counted down
	BusySlots     *Counter   // backoff slots frozen by other traffic
	RoundAirtime  *Histogram // per-round airtime, µs

	// Work counters: machine-independent measures of the round's hot-path
	// work, so recomputation creeping back fails the gate exactly.
	DecodeModelEvals *Counter // phy.CodedBER evaluations (two per round)
	SuccessProbEvals *Counter // phy.SuccessProbAtBER evaluations; a round pays once per distinct (BER, bits)
	ChannelPathEvals *Counter // path × subcarrier phasors; a cached static prefix adds none
	QueryBytesBuilt  *Counter // query A-MPDU bytes marshalled; zero, since rounds only plan the query
}

// NewCoreMetrics registers the core namespace on r.
func NewCoreMetrics(r *Registry) *CoreMetrics {
	return &CoreMetrics{
		Rounds:        r.counter("core.rounds", Lanes),
		Detections:    r.counter("core.rounds_detected", Lanes),
		TriggerMisses: r.counter("core.rounds_trigger_missed", Lanes),
		BALosses:      r.counter("core.rounds_ba_lost", Lanes),
		SubframesOK:   r.counter("core.subframes_ok", Lanes),
		SubframesLost: r.counter("core.subframes_lost", Lanes),
		Bits:          r.counter("core.bits", Lanes),
		BitErrors:     r.counter("core.bit_errors", Lanes),
		BackoffSlots:  r.counter("core.backoff_slots", Lanes),
		BusySlots:     r.counter("core.busy_slots", Lanes),
		RoundAirtime:  r.histogram("core.round_airtime_us", Exp2Bounds(256, 14), Lanes),

		DecodeModelEvals: r.counter("core.decode_model_evals", Lanes),
		SuccessProbEvals: r.counter("core.success_prob_evals", Lanes),
		ChannelPathEvals: r.counter("core.channel_path_evals", Lanes),
		QueryBytesBuilt:  r.counter("core.query_bytes_built", Lanes),
	}
}

// LinkMetrics instruments link.Transferer.
type LinkMetrics struct {
	TransfersStarted   *Counter
	TransfersDelivered *Counter
	TransfersFailed    *Counter // not delivered: budget exhausted, error or cancellation
	SegmentsSent       *Counter // frame attempts, including failures
	Retries            *Counter
	RoundFailures      *Counter // attempts erased by missed trigger / lost BA
	DesyncErrors       *Counter
	ResidualErrors     *Counter
	CorrectedBits      *Counter
	LadderUp           *Counter   // coding escalations (toward heavier protection)
	LadderDown         *Counter   // relaxations
	BackoffWaits       *Counter   // backoff sleeps taken
	BackoffWait        *Histogram // per-backoff simulated wait, µs
}

// NewLinkMetrics registers the link namespace on r.
func NewLinkMetrics(r *Registry) *LinkMetrics {
	return &LinkMetrics{
		TransfersStarted:   r.Counter("link.transfers_started"),
		TransfersDelivered: r.Counter("link.transfers_delivered"),
		TransfersFailed:    r.Counter("link.transfers_failed"),
		SegmentsSent:       r.Counter("link.segments_sent"),
		Retries:            r.Counter("link.retries"),
		RoundFailures:      r.Counter("link.round_failures"),
		DesyncErrors:       r.Counter("link.desync_errors"),
		ResidualErrors:     r.Counter("link.residual_errors"),
		CorrectedBits:      r.Counter("link.corrected_bits"),
		LadderUp:           r.Counter("link.ladder_up"),
		LadderDown:         r.Counter("link.ladder_down"),
		BackoffWaits:       r.Counter("link.backoff_waits"),
		BackoffWait:        r.Histogram("link.backoff_wait_us", Exp2Bounds(512, 10)),
	}
}

// FaultMetrics counts injections per event type (fault.Injector).
type FaultMetrics struct {
	SubframesLost *Counter
	TriggerMisses *Counter
	BALosses      *Counter
	Brownouts     *Counter
}

// NewFaultMetrics registers the fault namespace on r.
func NewFaultMetrics(r *Registry) *FaultMetrics {
	return &FaultMetrics{
		SubframesLost: r.counter("fault.subframes_lost", Lanes),
		TriggerMisses: r.counter("fault.trigger_misses", Lanes),
		BALosses:      r.counter("fault.ba_losses", Lanes),
		Brownouts:     r.counter("fault.brownouts", Lanes),
	}
}

// CodingMetrics instruments the coding-package transferers (fountain and
// adaptive RS).
type CodingMetrics struct {
	TransfersStarted   *Counter
	TransfersDelivered *Counter
	TransfersFailed    *Counter
	FramesSent         *Counter // symbol/shard frames put on the air
	SymbolsSent        *Counter // fountain encoded symbols
	ShardsSent         *Counter // RS data+parity shards
	FrameErasures      *Counter // frames erased by missed trigger / lost BA
	FrameErrors        *Counter // frames lost to CRC/decode failure
	DecodeAttempts     *Counter // peeling passes / RS reconstructions
	ParityResizes      *Counter // GuardRider parity re-sizing events
}

// NewCodingMetrics registers the coding namespace on r.
func NewCodingMetrics(r *Registry) *CodingMetrics {
	return &CodingMetrics{
		TransfersStarted:   r.Counter("coding.transfers_started"),
		TransfersDelivered: r.Counter("coding.transfers_delivered"),
		TransfersFailed:    r.Counter("coding.transfers_failed"),
		FramesSent:         r.Counter("coding.frames_sent"),
		SymbolsSent:        r.Counter("coding.symbols_sent"),
		ShardsSent:         r.Counter("coding.shards_sent"),
		FrameErasures:      r.Counter("coding.frame_erasures"),
		FrameErrors:        r.Counter("coding.frame_errors"),
		DecodeAttempts:     r.Counter("coding.decode_attempts"),
		ParityResizes:      r.Counter("coding.parity_resizes"),
	}
}

// TrafficMetrics instruments traffic.Generator (ambient A-MPDU bursts).
type TrafficMetrics struct {
	Rounds        *Counter // rounds a generator masked
	Bursts        *Counter // ambient bursts drawn
	SubframesMask *Counter // subframes occupied by ambient traffic
	StateSwitches *Counter // MMPP state transitions
}

// NewTrafficMetrics registers the traffic namespace on r.
func NewTrafficMetrics(r *Registry) *TrafficMetrics {
	return &TrafficMetrics{
		Rounds:        r.counter("traffic.rounds", Lanes),
		Bursts:        r.counter("traffic.bursts", Lanes),
		SubframesMask: r.counter("traffic.subframes_masked", Lanes),
		StateSwitches: r.counter("traffic.state_switches", Lanes),
	}
}

// RunnerMetrics instruments sim.Runner. Trial wall time and the runtime
// allocation deltas are real-time or scheduling dependent, so those
// instruments are volatile: they show up on /metrics but are excluded
// from the deterministic snapshot the worker-count suite compares.
type RunnerMetrics struct {
	TrialsStarted *Counter
	TrialsDone    *Counter
	TrialsFailed  *Counter
	TrialWallUs   *Histogram // per-trial wall time, µs (volatile) — the PROF report's wall figures
	AllocBytes    *Counter   // heap bytes allocated across campaigns (volatile)
	AllocObjects  *Counter   // heap objects allocated across campaigns (volatile)
	GCCycles      *Counter   // GC cycles completed across campaigns (volatile)
}

// NewRunnerMetrics registers the runner namespace on r.
func NewRunnerMetrics(r *Registry) *RunnerMetrics {
	return &RunnerMetrics{
		TrialsStarted: r.Counter("runner.trials_started"),
		TrialsDone:    r.Counter("runner.trials_done"),
		TrialsFailed:  r.Counter("runner.trials_failed"),
		TrialWallUs:   r.Histogram("runner.trial_wall_us", Exp2Bounds(64, 22), Volatile),
		AllocBytes:    r.Counter("runner.alloc_bytes", Volatile),
		AllocObjects:  r.Counter("runner.alloc_objects", Volatile),
		GCCycles:      r.Counter("runner.gc_cycles", Volatile),
	}
}

// Observer bundles one registry's typed views with an optional trace
// recorder; it is the single handle threaded through core, link, fault
// and sim. A nil *Observer disables all instrumentation; a non-nil one
// always has every view populated (construct via NewObserver).
type Observer struct {
	Registry *Registry
	Trace    *Recorder // may be nil: metrics without tracing

	Core    *CoreMetrics
	Link    *LinkMetrics
	Fault   *FaultMetrics
	Coding  *CodingMetrics
	Traffic *TrafficMetrics
	Runner  *RunnerMetrics
	Spans   *Spans // phase-attribution timers; nil disables span timing only
}

// NewObserver wires every instrument view onto reg. trace may be nil.
func NewObserver(reg *Registry, trace *Recorder) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Observer{
		Registry: reg,
		Trace:    trace,
		Core:     NewCoreMetrics(reg),
		Link:     NewLinkMetrics(reg),
		Fault:    NewFaultMetrics(reg),
		Coding:   NewCodingMetrics(reg),
		Traffic:  NewTrafficMetrics(reg),
		Runner:   NewRunnerMetrics(reg),
		Spans:    NewSpans(reg),
	}
}
