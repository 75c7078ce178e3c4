package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"witag/internal/bitio"
	"witag/internal/stats"
)

func codecs() []Codec {
	return []Codec{
		{},
		{FEC: true},
		{InterleaveDepth: 8},
		{FEC: true, InterleaveDepth: 8},
		{FEC: true, InterleaveDepth: 5}, // depth not dividing the bit count
	}
}

func TestCodecRoundTrip(t *testing.T) {
	payload := []byte("temperature=23.5C humidity=40%")
	for _, c := range codecs() {
		bits, err := c.Encode(payload)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		got, corrected, err := c.Decode(bits)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if corrected != 0 {
			t.Fatalf("%+v: spurious corrections %d", c, corrected)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%+v: round trip mismatch", c)
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	c := Codec{FEC: true, InterleaveDepth: 8}
	f := func(payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		bits, err := c.Encode(payload)
		if err != nil {
			return false
		}
		got, _, err := c.Decode(bits)
		if err != nil {
			return false
		}
		return (len(got) == 0 && len(payload) == 0) || bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCodecBuffersReuseMatchesFresh drives one CodecBuffers through a
// sequence of frames of random lengths, FEC on and off and interleave
// depths 1–16, and requires every EncodeInto, Deinterleave and
// DecodeCoded to give the bytes, corrections and error that a fresh
// Encode and Decode give — on the clean bits and on bits with random
// flips. A shorter frame after a longer one catches stale storage, such
// as interleaver padding that is not zeroed again.
func TestCodecBuffersReuseMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(41)
	var b CodecBuffers
	for frame := 0; frame < 3000; frame++ {
		c := Codec{FEC: rng.Intn(2) == 1, InterleaveDepth: 1 + rng.Intn(16)}
		payload := stats.RandomBytes(rng, rng.Intn(MaxPayload+1))
		want, err := c.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EncodeInto(&b, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d %+v, %d bytes: reused encode differs from a fresh one", frame, c, len(payload))
		}
		rx := slices.Clone(want)
		for flips := rng.Intn(4); flips > 0; flips-- {
			rx[rng.Intn(len(rx))] ^= 1
		}
		wantPayload, wantCorrected, wantErr := c.Decode(rx)
		coded, err := c.Deinterleave(&b, rx)
		if err != nil {
			t.Fatal(err)
		}
		gotPayload, gotCorrected, gotErr := c.DecodeCoded(&b, coded)
		if !bytes.Equal(gotPayload, wantPayload) || gotCorrected != wantCorrected || gotErr != wantErr {
			t.Fatalf("frame %d %+v: reused decode (%x, %d, %v), fresh (%x, %d, %v)",
				frame, c, gotPayload, gotCorrected, gotErr, wantPayload, wantCorrected, wantErr)
		}
	}
}

func TestCodecRejectsOversizedPayload(t *testing.T) {
	if _, err := (Codec{}).Encode(make([]byte, 256)); err == nil {
		t.Fatal("256-byte payload accepted")
	}
}

// paddedBits returns how many bits Encode should emit after interleaver
// padding for an n-byte payload: the length oracle for Encode.
func paddedBits(c Codec, n int) int {
	raw := c.EncodedBits(n)
	if c.InterleaveDepth <= 1 {
		return raw
	}
	d := c.InterleaveDepth
	cols := (raw + d - 1) / d
	return d * cols
}

func TestCodecEncodedBits(t *testing.T) {
	c := Codec{}
	if c.EncodedBits(10) != 14*8 {
		t.Fatalf("raw bits = %d", c.EncodedBits(10))
	}
	c.FEC = true
	if c.EncodedBits(10) != 14*16 {
		t.Fatalf("FEC bits = %d", c.EncodedBits(10))
	}
	bits, _ := c.Encode(make([]byte, 10))
	if len(bits) != paddedBits(c, 10) {
		t.Fatalf("Encode emitted %d bits, paddedBits says %d", len(bits), paddedBits(c, 10))
	}
	c.InterleaveDepth = 7
	bits, _ = c.Encode(make([]byte, 10))
	if len(bits) != paddedBits(c, 10) {
		t.Fatalf("interleaved Encode emitted %d bits, paddedBits says %d", len(bits), paddedBits(c, 10))
	}
}

func TestCodecFECCorrectsScatteredErrors(t *testing.T) {
	c := Codec{FEC: true}
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	bits, _ := c.Encode(payload)
	// One flip per 8-bit codeword is always correctable.
	for cw := 0; cw < len(bits)/8; cw++ {
		bits[cw*8+3] ^= 1
	}
	got, corrected, err := c.Decode(bits)
	if err != nil {
		t.Fatal(err)
	}
	if corrected != len(bits)/8 {
		t.Fatalf("corrected %d, want %d", corrected, len(bits)/8)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
}

func TestCodecUncorrectableFECIsErrFEC(t *testing.T) {
	c := Codec{FEC: true}
	bits, _ := c.Encode([]byte{0xDE, 0xAD})
	bits[33] ^= 1 // two flips in one codeword
	bits[35] ^= 1
	_, _, err := c.Decode(bits)
	if !errors.Is(err, ErrFEC) || !errors.Is(err, bitio.ErrUncorrectable) {
		t.Fatalf("got %v, want ErrFEC wrapping bitio.ErrUncorrectable", err)
	}
	if DesyncError(err) {
		t.Fatal("an uncorrectable codeword is residual corruption, not desync")
	}
}

func TestCodecInterleaverDefeatsBursts(t *testing.T) {
	// A burst of 8 consecutive bit errors kills a plain FEC frame but not
	// an interleaved one (depth ≥ burst length spreads it to 1 error per
	// codeword).
	payload := stats.RandomBytes(stats.NewRNG(1), 16)

	plain := Codec{FEC: true}
	bits, _ := plain.Encode(payload)
	for i := 40; i < 48; i++ {
		bits[i] ^= 1
	}
	if _, _, err := plain.Decode(bits); err == nil {
		t.Fatal("un-interleaved FEC should fail under an 8-bit burst")
	}

	inter := Codec{FEC: true, InterleaveDepth: 16}
	bits, _ = inter.Encode(payload)
	for i := 40; i < 48; i++ {
		bits[i] ^= 1
	}
	got, corrected, err := inter.Decode(bits)
	if err != nil {
		t.Fatalf("interleaved FEC failed: %v", err)
	}
	if corrected == 0 {
		t.Fatal("burst should have required corrections")
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
}

func TestCodecCRCCatchesResidualErrors(t *testing.T) {
	c := Codec{} // no FEC: any flip must surface via CRC
	payload := []byte("integrity")
	bits, _ := c.Encode(payload)
	for pos := 16; pos < len(bits)-1; pos++ { // skip sync+len header fields
		mut := append([]byte(nil), bits...)
		mut[pos] ^= 1
		if _, _, err := c.Decode(mut); err == nil {
			t.Fatalf("flip at bit %d undetected", pos)
		}
	}
}

func TestCodecBadSyncAndLength(t *testing.T) {
	c := Codec{}
	bits, _ := c.Encode([]byte("x"))
	// Corrupt the sync byte (bits 0..7).
	bits[0] ^= 1
	if _, _, err := c.Decode(bits); err == nil {
		t.Fatal("bad sync accepted")
	}
	// Truncated stream.
	if _, _, err := c.Decode(bits[:8]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Interleave depth mismatch.
	ci := Codec{InterleaveDepth: 8}
	enc, _ := ci.Encode([]byte("abc"))
	if _, _, err := ci.Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("length not multiple of depth accepted")
	}
}

func TestTriggerPatternBasics(t *testing.T) {
	p, err := TriggerPattern(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 || !p[0] || p[3] {
		t.Fatalf("pattern = %v", p)
	}
	if _, err := TriggerPattern(3, 4); err != nil {
		t.Fatalf("a 4-subframe pattern should address 4 tags: %v", err)
	}
	if _, err := TriggerPattern(4, 4); err == nil {
		t.Fatal("address outside space accepted")
	}
	if _, err := TriggerPattern(-1, 4); err == nil {
		t.Fatal("negative address accepted")
	}
	if _, err := TriggerPattern(0, 2); err == nil {
		t.Fatal("too-short pattern accepted")
	}
	if _, err := TriggerPattern(0, 99); err == nil {
		t.Fatal("too-long pattern accepted")
	}
}

func TestTriggerPatternsAllDistinct(t *testing.T) {
	// No crosstalk: distinct addresses never share a pattern, so a
	// comparator can always tell them apart.
	const plen = 6
	var patterns [][]bool
	for a := 0; a < 1<<(plen-2); a++ {
		p, err := TriggerPattern(a, plen)
		if err != nil {
			t.Fatal(err)
		}
		for b, q := range patterns {
			if slices.Equal(p, q) {
				t.Fatalf("addresses %d and %d share pattern %v", b, a, p)
			}
		}
		patterns = append(patterns, p)
	}
}

func TestAddressedDetectorSelectivity(t *testing.T) {
	// Tag 2's detector must expect tag 2's pattern, which differs from
	// tag 5's.
	const plen = 6
	d2, err := AddressedDetector(2, plen, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := TriggerPattern(2, plen)
	p5, _ := TriggerPattern(5, plen)
	if !slices.Equal(d2.Pattern, p2) || slices.Equal(d2.Pattern, p5) {
		t.Fatalf("detector pattern %v, want %v and not %v", d2.Pattern, p2, p5)
	}
	if d2.Threshold != 0.5 {
		t.Fatalf("threshold %v, want 0.5", d2.Threshold)
	}
	if _, err := AddressedDetector(99, plen, 0.5); err == nil {
		t.Fatal("invalid address accepted")
	}
}

// TestCodecEncodeAllocs pins a FEC+interleaved codec's allocations: a
// fresh Encode allocates its frame, its SECDED bits and its interleaved
// bits, and an encode, deinterleave and decode into grown CodecBuffers
// allocate nothing.
func TestCodecEncodeAllocs(t *testing.T) {
	c := Codec{FEC: true, InterleaveDepth: 8}
	payload := []byte("temperature=23.5C humidity=40%")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Encode(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Fatalf("Encode allocates %v times per call, want 3", allocs)
	}
	var b CodecBuffers
	allocs = testing.AllocsPerRun(100, func() {
		bits, err := c.EncodeInto(&b, payload)
		if err != nil {
			t.Fatal(err)
		}
		coded, err := c.Deinterleave(&b, bits)
		if err != nil {
			t.Fatal(err)
		}
		if got, _, err := c.DecodeCoded(&b, coded); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: %x, %v", got, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a round trip into reused buffers allocates %v times, want 0", allocs)
	}
}

// TestCodecDecodeOwnsPayload checks that Decode's payload shares no
// memory with its input: overwriting the received bits after decoding
// must leave the payload intact, for every codec shape.
func TestCodecDecodeOwnsPayload(t *testing.T) {
	payload := []byte("temperature=23.5C humidity=40%")
	for _, c := range codecs() {
		bits, err := c.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.Decode(bits)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		for i := range bits {
			bits[i] = 0xA5
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%+v: overwriting the input changed the decoded payload", c)
		}
	}
}

// TestInterleaveMatchesIndexFormula checks the interleaver's row/column
// loops against the per-bit index formula they replaced, out[idx%cols·d
// + idx/cols] = bits[idx], over random lengths (0 and lengths that leave
// the last row short included) and depths, and that deinterleave still
// inverts it. Both write into storage reused across the trials, so
// padding a longer trial left behind must not show.
func TestInterleaveMatchesIndexFormula(t *testing.T) {
	rng := stats.NewRNG(23)
	var out, back []byte
	for trial := 0; trial < 2000; trial++ {
		n, d := rng.Intn(300), 1+rng.Intn(24)
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = byte(1 + rng.Intn(255)) // nonzero, so padding is visible
		}
		cols := (n + d - 1) / d
		want := make([]byte, d*cols)
		for idx, b := range bits {
			want[idx%cols*d+idx/cols] = b
		}
		c := Codec{InterleaveDepth: d}
		out = c.interleave(out, bits)
		if !bytes.Equal(out, want) {
			t.Fatalf("n=%d depth=%d: interleave %v, index formula %v", n, d, out, want)
		}
		back = deinterleave(back, out, d)
		if !bytes.Equal(back[:n], bits) {
			t.Fatalf("n=%d depth=%d: deinterleave did not invert interleave", n, d)
		}
	}
}
