package core

import (
	"bytes"
	"testing"

	"witag/internal/fault"
	"witag/internal/stats"
)

// TestInterleavingBeatsDepth1UnderBurstLoss is the paired Monte-Carlo
// justification for the interleaver's place on the protection ladder:
// under Gilbert–Elliott burst loss at *equal average loss rate* — enforced
// by construction, the identical loss mask hits both encodings — a deep
// interleaver must deliver strictly more frames than no interleaver,
// because it spreads each burst across SECDED codewords that can each
// absorb one error.
func TestInterleavingBeatsDepth1UnderBurstLoss(t *testing.T) {
	shallow := Codec{FEC: true, InterleaveDepth: 1}
	deep := Codec{FEC: true, InterleaveDepth: 8}
	// Bursty erasure channel: mean dwell 8 subframes, total loss inside a
	// burst, pristine outside. Lost subframes read as bitmap 0 (DESIGN.md
	// §3: erasure corrupts only the tag's 1-bits).
	ge := fault.GilbertElliott{PGoodBad: 0.005, PBadGood: 0.125, LossGood: 0, LossBad: 1}
	rng := stats.NewRNG(stats.SubSeed(77, "burst", "mask"))
	payloadRNG := stats.NewRNG(stats.SubSeed(77, "burst", "payload"))

	const trials = 400
	okShallow, okDeep := 0, 0
	for i := 0; i < trials; i++ {
		payload := stats.RandomBytes(payloadRNG, 16)
		a, err := shallow.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		b, err := deep.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		n := len(a)
		if len(b) > n {
			n = len(b)
		}
		mask := make([]bool, n)
		for j := range mask {
			mask[j] = ge.Step(rng)
		}
		erase := func(bits []byte) []byte {
			out := append([]byte(nil), bits...)
			for j := range out {
				if mask[j] {
					out[j] = 0
				}
			}
			return out
		}
		if got, _, err := shallow.Decode(erase(a)); err == nil && bytes.Equal(got, payload) {
			okShallow++
		}
		if got, _, err := deep.Decode(erase(b)); err == nil && bytes.Equal(got, payload) {
			okDeep++
		}
	}
	t.Logf("frame success over %d trials: depth 1 = %d, depth 8 = %d", trials, okShallow, okDeep)
	if okDeep <= okShallow {
		t.Fatalf("depth-8 interleaving (%d/%d) did not beat depth 1 (%d/%d) at equal average loss",
			okDeep, trials, okShallow, trials)
	}
	if okDeep < trials/2 {
		t.Fatalf("depth-8 success %d/%d — interleaver no longer spreading bursts effectively", okDeep, trials)
	}
}

// TestDecodeTruncatesTrailingPartialCodeword pins the FEC boundary
// arithmetic: interleaver padding can leave up to 15 trailing non-codeword
// bits, and Decode must drop exactly ⌊len/16⌋·16 onward — junk in that
// tail must never corrupt the decode or leak into the payload.
func TestDecodeTruncatesTrailingPartialCodeword(t *testing.T) {
	codec := Codec{FEC: true}
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x42}
	bits, err := codec.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	for junk := 1; junk <= 15; junk++ {
		in := append(append([]byte(nil), bits...), bytes.Repeat([]byte{1}, junk)...)
		got, corrected, err := codec.Decode(in)
		if err != nil {
			t.Fatalf("%d trailing junk bits broke decode: %v", junk, err)
		}
		if corrected != 0 || !bytes.Equal(got, payload) {
			t.Fatalf("%d trailing junk bits leaked: got=%x corrected=%d", junk, got, corrected)
		}
	}
	// A full extra codeword of zeros decodes as a padding byte and must be
	// stripped by the LEN field, not returned.
	in := append(append([]byte(nil), bits...), make([]byte, 16)...)
	got, _, err := codec.Decode(in)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("whole zero padding codeword mishandled: got=%x err=%v", got, err)
	}
}

// TestFECInterleaveDepthSweepRoundTrips covers the awkward depth/length
// interactions (non-power-of-two depths, depths longer than the frame) the
// ladder never exercises.
func TestFECInterleaveDepthSweepRoundTrips(t *testing.T) {
	rng := stats.NewRNG(stats.SubSeed(78, "depthsweep"))
	for depth := 2; depth <= 33; depth++ {
		for _, n := range []int{1, 5, 16, 31} {
			payload := stats.RandomBytes(rng, n)
			for _, fec := range []bool{false, true} {
				codec := Codec{FEC: fec, InterleaveDepth: depth}
				bits, err := codec.Encode(payload)
				if err != nil {
					t.Fatal(err)
				}
				if len(bits) != paddedBits(codec, n) {
					t.Fatalf("depth %d fec %v n %d: %d bits, paddedBits says %d", depth, fec, n, len(bits), paddedBits(codec, n))
				}
				got, corrected, err := codec.Decode(bits)
				if err != nil || corrected != 0 || !bytes.Equal(got, payload) {
					t.Fatalf("depth %d fec %v n %d round-trip: got=%x corrected=%d err=%v", depth, fec, n, got, corrected, err)
				}
			}
		}
	}
}
