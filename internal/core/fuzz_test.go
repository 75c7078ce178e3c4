package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// fuzzDepths are the interleave depths the fuzzer explores — the ladder's
// values plus degenerate and non-power-of-two ones.
var fuzzDepths = []int{0, 1, 2, 4, 5, 8, 16, 32}

// FuzzCodecDecode drives every codec configuration through an
// encode→corrupt→decode oracle:
//
//   - Decode never panics, on mutated encodings or on raw junk bits.
//   - An unmutated encoding round-trips exactly with zero corrections.
//   - With FEC on, any single bit flip is corrected to the exact payload
//     (SECDED corrects one error per codeword).
//   - With FEC and interleaving off, up to 3 flips beyond the SYNC/LEN
//     bits must be *detected*: CRC-16/CCITT-FALSE has Hamming distance 4
//     up to 32751 bits, far beyond any frame, so a passing CRC with a
//     wrong payload would be a bug, not bad luck.
//   - Whatever Decode accepts must be re-encodable: length within
//     MaxPayload, and errors only from the documented classes.
func FuzzCodecDecode(f *testing.F) {
	f.Add([]byte("witag"), byte(0), []byte{})
	f.Add([]byte("witag"), byte(1), []byte{0, 40})
	f.Add(bytes.Repeat([]byte{0xA5}, 64), byte(5), []byte{0, 17, 1, 2, 0, 17})
	f.Add([]byte{}, byte(7), []byte{0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0}, 255), byte(15), []byte{0, 200, 3, 9})
	f.Fuzz(func(t *testing.T, payload []byte, sel byte, flips []byte) {
		codec := Codec{
			FEC:             sel&1 == 1,
			InterleaveDepth: fuzzDepths[int(sel>>1)%len(fuzzDepths)],
		}
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		bits, err := codec.Encode(payload)
		if err != nil {
			t.Fatalf("encode rejected a legal payload: %v", err)
		}

		// Raw-junk mode first: the flip bytes fed straight in as a bit
		// stream must never panic, and anything accepted must be legal.
		if got, _, jerr := codec.Decode(flips); jerr == nil && len(got) > MaxPayload {
			t.Fatalf("junk decoded to %d-byte payload", len(got))
		}

		// Toggle up to 8 flip positions; duplicates cancel, so track the
		// effective set.
		mutated := append([]byte(nil), bits...)
		flipped := map[int]bool{}
		for i := 0; i+1 < len(flips) && i < 16; i += 2 {
			if len(bits) == 0 {
				break
			}
			pos := (int(flips[i])<<8 | int(flips[i+1])) % len(bits)
			mutated[pos] ^= 1
			flipped[pos] = !flipped[pos]
		}
		var positions []int
		for pos, on := range flipped {
			if on {
				positions = append(positions, pos)
			}
		}

		got, corrected, err := codec.Decode(mutated)
		switch {
		case len(positions) == 0:
			if err != nil || corrected != 0 || !bytes.Equal(got, payload) {
				t.Fatalf("clean round-trip broke: payload=%x got=%x corrected=%d err=%v", payload, got, corrected, err)
			}
		case codec.FEC && len(positions) == 1:
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("SECDED failed to absorb a single flip at %v: got=%x err=%v", positions, got, err)
			}
		case !codec.FEC && codec.InterleaveDepth <= 1 && len(positions) <= 3 && minPos(positions) >= 16:
			// All flips land in payload/CRC bits; within the CRC's HD=4
			// guarantee they must be detected.
			if err == nil {
				t.Fatalf("CRC passed %d flips at %v: payload=%x got=%x", len(positions), positions, payload, got)
			}
		}
		if err == nil {
			if len(got) > MaxPayload {
				t.Fatalf("accepted %d-byte payload", len(got))
			}
			if _, rerr := codec.Encode(got); rerr != nil {
				t.Fatalf("accepted payload does not re-encode: %v", rerr)
			}
		} else if !knownDecodeError(err) {
			t.Fatalf("undocumented decode error class: %v", err)
		}
	})
}

func minPos(ps []int) int {
	m := 1 << 30
	for _, p := range ps {
		if p < m {
			m = p
		}
	}
	return m
}

// knownDecodeError reports whether err belongs to Decode's documented
// failure classes: the exported sentinels (ErrFEC among them) or an
// interleave length mismatch.
func knownDecodeError(err error) bool {
	return errors.Is(err, ErrFrameCRC) || DesyncError(err) ||
		errors.Is(err, ErrFEC) ||
		strings.Contains(err.Error(), "interleaved length")
}
