package bitio

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBytesBitsRoundTripProperty(t *testing.T) {
	f := func(p []byte) bool {
		return bytes.Equal(BitsToBytes(BytesToBits(p)), p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitsLSBFirstOrder(t *testing.T) {
	bits := BytesToBits([]byte{0b00000001})
	if bits[0] != 1 {
		t.Fatal("LSB must be transmitted first")
	}
	for _, b := range bits[1:] {
		if b != 0 {
			t.Fatal("upper bits should be zero")
		}
	}
}

func TestHammingDistanceBits(t *testing.T) {
	d, err := HammingDistance([]byte{1, 0, 1, 1}, []byte{0, 0, 1, 0})
	if err != nil || d != 2 {
		t.Fatalf("distance = %d, %v", d, err)
	}
	if _, err := HammingDistance([]byte{1}, nil); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestFCSKnownVector(t *testing.T) {
	// CRC-32/IEEE of "123456789" is the classic check value 0xCBF43926.
	if got := FCS([]byte("123456789")); got != 0xCBF43926 {
		t.Fatalf("FCS = %08x, want CBF43926", got)
	}
}

func TestAppendCheckFCSRoundTripProperty(t *testing.T) {
	f := func(p []byte) bool {
		framed := AppendFCS(p)
		body, ok := CheckFCS(framed)
		return ok && bytes.Equal(body, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFCSDetectsSingleBitErrorsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func(p []byte) bool {
		framed := AppendFCS(p)
		// Flip one random bit anywhere in the framed MPDU.
		pos := r.Intn(len(framed) * 8)
		framed[pos/8] ^= 1 << uint(pos%8)
		_, ok := CheckFCS(framed)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFCSTooShort(t *testing.T) {
	if _, ok := CheckFCS([]byte{1, 2, 3}); ok {
		t.Fatal("3-byte input cannot carry an FCS")
	}
}

func TestCRC8Deterministic(t *testing.T) {
	a := CRC8([]byte{0x01, 0x02, 0x03})
	b := CRC8([]byte{0x01, 0x02, 0x03})
	if a != b {
		t.Fatal("CRC8 not deterministic")
	}
	if CRC8([]byte{0x01, 0x02, 0x03}) == CRC8([]byte{0x01, 0x02, 0x04}) {
		t.Fatal("CRC8 failed to distinguish inputs")
	}
}

func TestCRC8DetectsSingleBitErrors(t *testing.T) {
	p := []byte{0xDE, 0xAD}
	want := CRC8(p)
	for byteIdx := range p {
		for bit := 0; bit < 8; bit++ {
			q := append([]byte(nil), p...)
			q[byteIdx] ^= 1 << uint(bit)
			if CRC8(q) == want {
				t.Fatalf("single-bit flip at %d.%d undetected", byteIdx, bit)
			}
		}
	}
}

func TestHammingNibbleRoundTrip(t *testing.T) {
	for d := byte(0); d < 16; d++ {
		cw := appendHammingNibble(nil, d)
		got, corrected, err := HammingDecodeNibble(cw)
		if err != nil || corrected || got != d {
			t.Fatalf("nibble %x: got %x corrected=%v err=%v", d, got, corrected, err)
		}
	}
}

func TestHammingCorrectsAnySingleBitError(t *testing.T) {
	for d := byte(0); d < 16; d++ {
		for pos := 0; pos < 8; pos++ {
			cw := appendHammingNibble(nil, d)
			cw[pos] ^= 1
			got, corrected, err := HammingDecodeNibble(cw)
			if err != nil {
				t.Fatalf("nibble %x flip %d: %v", d, pos, err)
			}
			if !corrected {
				t.Fatalf("nibble %x flip %d: correction not reported", d, pos)
			}
			if got != d {
				t.Fatalf("nibble %x flip %d: decoded %x", d, pos, got)
			}
		}
	}
}

func TestHammingDetectsDoubleBitErrors(t *testing.T) {
	for d := byte(0); d < 16; d++ {
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				cw := appendHammingNibble(nil, d)
				cw[i] ^= 1
				cw[j] ^= 1
				if _, _, err := HammingDecodeNibble(cw); !errors.Is(err, ErrUncorrectable) {
					t.Fatalf("nibble %x flips %d,%d: got %v, want ErrUncorrectable", d, i, j, err)
				}
			}
		}
	}
}

func TestHammingDecodeNibbleBadLength(t *testing.T) {
	if _, _, err := HammingDecodeNibble([]byte{1, 0, 1}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestHammingStreamRoundTripProperty(t *testing.T) {
	f := func(p []byte) bool {
		enc := HammingEncode(p)
		dec, corrected, err := HammingDecode(enc)
		return err == nil && corrected == 0 && bytes.Equal(dec, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHammingStreamCorrectsScatteredErrors(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	payload := make([]byte, 64)
	r.Read(payload)
	enc := HammingEncode(payload)
	// One error per codeword is always correctable.
	for cw := 0; cw < len(enc)/8; cw++ {
		enc[cw*8+r.Intn(8)] ^= 1
	}
	dec, corrected, err := HammingDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if corrected != len(enc)/8 {
		t.Fatalf("corrected %d, want %d", corrected, len(enc)/8)
	}
	if !bytes.Equal(dec, payload) {
		t.Fatal("payload corrupted after correction")
	}
}

func TestHammingStreamReportsUncorrectable(t *testing.T) {
	enc := HammingEncode([]byte{0x5A, 0xC3})
	enc[17] ^= 1 // two flips in the third codeword
	enc[20] ^= 1
	if _, _, err := HammingDecode(enc); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("got %v, want ErrUncorrectable", err)
	}
}

func TestHammingDecodeBadLength(t *testing.T) {
	if _, _, err := HammingDecode(make([]byte, 15)); err == nil {
		t.Fatal("expected multiple-of-16 error")
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16 = %04x, want 29B1", got)
	}
}

// crc16Bitwise is CRC16 as it was before the lookup table: eight
// conditional shifts per byte.
func crc16Bitwise(p []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range p {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestCRC16MatchesBitwise holds the table-driven CRC16 to the bitwise
// loop it replaced on random inputs of every length from 0 to 300.
func TestCRC16MatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 0; n <= 300; n++ {
		for rep := 0; rep < 4; rep++ {
			p := make([]byte, n)
			rng.Read(p)
			if got, want := CRC16(p), crc16Bitwise(p); got != want {
				t.Fatalf("CRC16(% x) = %04x, the bitwise loop gives %04x", p, got, want)
			}
		}
	}
	if got := crc16Bitwise([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("bitwise oracle = %04x, want 29B1", got)
	}
}

func TestCRC16DetectsSingleBitErrors(t *testing.T) {
	p := []byte{0x00, 0xFF, 0x55}
	want := CRC16(p)
	for byteIdx := range p {
		for bit := 0; bit < 8; bit++ {
			q := append([]byte(nil), p...)
			q[byteIdx] ^= 1 << uint(bit)
			if CRC16(q) == want {
				t.Fatalf("flip at %d.%d undetected", byteIdx, bit)
			}
		}
	}
}

// TestHammingEncodeAllocs pins HammingEncode to its one output slice:
// codewords are appended in place, not built per nibble.
func TestHammingEncodeAllocs(t *testing.T) {
	p := []byte("temperature=23.5C humidity=40%")
	if allocs := testing.AllocsPerRun(100, func() { HammingEncode(p) }); allocs != 1 {
		t.Fatalf("HammingEncode allocates %v times per call, want 1", allocs)
	}
}
