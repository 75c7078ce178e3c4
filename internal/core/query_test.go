package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"witag/internal/dot11"
	"witag/internal/mac"
)

func newSched(t *testing.T) *mac.AMPDUScheduler {
	t.Helper()
	s, err := mac.NewAMPDUScheduler(
		dot11.MACAddr{2, 0, 0, 0, 0, 1},
		dot11.MACAddr{2, 0, 0, 0, 0, 2},
		dot11.MACAddr{2, 0, 0, 0, 0, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func shapedSpec(t *testing.T) QuerySpec {
	t.Helper()
	spec := DefaultQuerySpec()
	if err := spec.ShapeForTick(20*time.Microsecond, 1, 0); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBuildQueryStructure(t *testing.T) {
	spec := shapedSpec(t)
	agg, start, err := spec.BuildQuery(newSched(t))
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("start seq = %d", start)
	}
	if len(agg.Subframes) != spec.Total() {
		t.Fatalf("built %d subframes, want %d", len(agg.Subframes), spec.Total())
	}
	for i, m := range agg.Subframes {
		f, err := dot11.UnmarshalQoSData(m)
		if err != nil {
			t.Fatalf("subframe %d: %v", i, err)
		}
		wantFill := byte(TriggerHighByte)
		if i < spec.TriggerLen && i%2 == 1 {
			wantFill = TriggerLowByte
		}
		if len(f.Body) == 0 {
			t.Fatalf("subframe %d has no payload despite shaping", i)
		}
		for _, b := range f.Body {
			if b != wantFill {
				t.Fatalf("subframe %d fill byte 0x%02x, want 0x%02x", i, b, wantFill)
			}
		}
	}
}

func TestBuildQueryAlternatingTriggerEnvelope(t *testing.T) {
	spec := shapedSpec(t)
	agg, _, err := spec.BuildQuery(newSched(t))
	if err != nil {
		t.Fatal(err)
	}
	// The tag's envelope model must see alternating high/low amplitude
	// across the trigger subframes.
	var last float64
	for i := 0; i < spec.TriggerLen; i++ {
		f, err := dot11.UnmarshalQoSData(agg.Subframes[i])
		if err != nil {
			t.Fatal(err)
		}
		amp := EnvelopeAmplitudeFor(f.Body[0])
		if i > 0 {
			if i%2 == 1 && amp >= last {
				t.Fatalf("trigger %d amplitude %v not below previous %v", i, amp, last)
			}
			if i%2 == 0 && amp <= last {
				t.Fatalf("trigger %d amplitude %v not above previous %v", i, amp, last)
			}
		}
		last = amp
	}
}

func TestBuildQueryInvalidSpec(t *testing.T) {
	spec := DefaultQuerySpec()
	spec.TriggerLen = 0
	if _, _, err := spec.BuildQuery(newSched(t)); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSubframeAirtimesUniformWithinDither(t *testing.T) {
	spec := shapedSpec(t)
	airs, err := spec.SubframeAirtimes(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(airs) != spec.Total() {
		t.Fatalf("%d airtimes", len(airs))
	}
	// All subframes within one dither quantum (4 on-air bytes ≈ 1.7 µs at
	// QPSK 3/4) of the 20 µs target.
	for i, a := range airs {
		d := a - 20*time.Microsecond
		if d < 0 {
			d = -d
		}
		if d > 2*time.Microsecond {
			t.Fatalf("subframe %d airtime %v too far from 20 µs", i, a)
		}
	}
}

func TestSubframeAirtimesInvalidWidth(t *testing.T) {
	spec := shapedSpec(t)
	spec.Width = dot11.ChannelWidth(3)
	if _, err := spec.SubframeAirtimes(0); err == nil {
		t.Fatal("invalid width accepted")
	}
}

func TestShapeForTickWithCipherOverheadKeepsGrid(t *testing.T) {
	spec := DefaultQuerySpec()
	const overhead = 16 // CCMP
	if err := spec.ShapeForTick(20*time.Microsecond, 2, overhead); err != nil {
		t.Fatal(err)
	}
	errs, err := boundaryErrors(spec, 20*time.Microsecond, overhead)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e > 1e-6 || e < -1e-6 {
			t.Fatalf("encrypted boundary %d off by %v s", i, e)
		}
	}
}

func TestShapeForTickRejectsMismatchedSizes(t *testing.T) {
	spec := DefaultQuerySpec()
	spec.PayloadSizes = []int{1} // wrong length is cleared by reshaping
	if err := spec.ShapeForTick(20*time.Microsecond, 1, 0); err != nil {
		t.Fatalf("reshape should clear stale sizes: %v", err)
	}
}

func TestTicksPerSubframeRecorded(t *testing.T) {
	spec := DefaultQuerySpec()
	if spec.TicksPerSubframe != 0 {
		t.Fatal("unshaped spec should record 0 ticks")
	}
	if err := spec.ShapeForTick(20*time.Microsecond, 3, 0); err != nil {
		t.Fatal(err)
	}
	if spec.TicksPerSubframe != 3 {
		t.Fatalf("recorded %d ticks", spec.TicksPerSubframe)
	}
}

func TestQueryRoundFullyAmbient(t *testing.T) {
	// Failure injection: with 100% ambient loss every subframe dies, so
	// the reader sees all zeros — every transmitted 1 is an error, every
	// 0 "accidentally" right.
	sys, env := testbed(t, 1, 77)
	_ = env
	sys.AmbientLossProb = 1
	ones := make([]byte, sys.Spec.DataLen)
	for i := range ones {
		ones[i] = 1
	}
	res, err := sys.QueryRound(ones)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors != sys.Spec.DataLen {
		t.Fatalf("expected every bit wrong, got %d/%d", res.BitErrors, sys.Spec.DataLen)
	}
	zeros := make([]byte, sys.Spec.DataLen)
	res, err = sys.QueryRound(zeros)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors != 0 {
		t.Fatalf("all-zero data under total loss should read back exactly, got %d errors", res.BitErrors)
	}
}

func TestQueryRoundDeterministicUnderSeed(t *testing.T) {
	mk := func() []byte {
		sysA, envA := testbed(t, 3, 123)
		envA.Advance(0.1)
		res, err := sysA.QueryRound([]byte{0, 1, 0, 1, 1, 0})
		if err != nil {
			t.Fatal(err)
		}
		return res.RxBits
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("query round not reproducible under identical seeds")
		}
	}
}

func TestSystemTagBoostsLink(t *testing.T) {
	// A reflective tag at rest adds a constructive path near the client:
	// the with-tag SNR reported by the round should be within a few dB of
	// the bare link, never catastrophically below it.
	sys, env := testbed(t, 1, 55)
	bare, err := env.SNR(sys.ClientPos, sys.APPos)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.QueryRound([]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bareDb := 10 * log10(bare)
	if res.SNRDb < bareDb-6 {
		t.Fatalf("tag-at-rest SNR %v dB far below bare link %v dB", res.SNRDb, bareDb)
	}
}

func log10(x float64) float64 {
	if x <= 0 {
		return -300
	}
	return math.Log10(x)
}

// boundaryErrors returns the deviation of each
// cumulative subframe boundary from the ideal tick grid, in seconds.
func boundaryErrors(q QuerySpec, tick time.Duration, cipherOverhead int) ([]float64, error) {
	if q.TicksPerSubframe < 1 {
		return nil, errors.New("core: spec is not shaped")
	}
	airs, err := q.SubframeAirtimes(cipherOverhead)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(airs))
	cum := 0.0
	for i, a := range airs {
		cum += a.Seconds()
		ideal := float64(i+1) * float64(q.TicksPerSubframe) * tick.Seconds()
		out[i] = cum - ideal
	}
	return out, nil
}
