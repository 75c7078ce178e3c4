package dot11

import (
	"encoding/binary"
	"fmt"

	"witag/internal/bitio"
)

// A-MPDU aggregation (IEEE 802.11-2012 §8.6.1). Each MPDU is prefixed by a
// 4-byte delimiter:
//
//	bits  0-3  : EOF + reserved (we carry EOF in bit 0)
//	bits  4-15 : MPDU length in bytes (12 bits)
//	bits 16-23 : CRC-8 over the first two bytes
//	bits 24-31 : signature 0x4E ('N'), used by receivers to re-sync after
//	             a corrupted delimiter
//
// and padded to a 4-byte boundary (except the final subframe). The whole
// aggregate travels in a single PPDU behind one PHY preamble — the property
// WiTAG exploits: channel estimation happens once, so a mid-aggregate
// channel flip silently invalidates equalisation for the flipped subframes
// only.

// DelimiterLen is the size of an MPDU delimiter in bytes.
const DelimiterLen = 4

// DelimiterSignature is the final delimiter byte, ASCII 'N'.
const DelimiterSignature = 0x4E

// MaxSubframes is the maximum number of MPDUs in one A-MPDU; the block ACK
// bitmap covers exactly this many sequence numbers.
const MaxSubframes = 64

// MaxMPDULen is the largest MPDU length expressible in the delimiter's
// 12-bit length field.
const MaxMPDULen = 4095

// Subframe is one MPDU inside an A-MPDU, as reassembled by the receiver.
type Subframe struct {
	MPDU []byte // delimited MPDU bytes including FCS
	EOF  bool   // end-of-frame padding delimiter marker
}

// encodeDelimiter builds the 4-byte delimiter for an MPDU of length n.
func encodeDelimiter(n int, eof bool) ([]byte, error) {
	if n < 0 || n > MaxMPDULen {
		return nil, fmt.Errorf("dot11: MPDU length %d outside delimiter's 12-bit range", n)
	}
	var d [DelimiterLen]byte
	v := uint16(n) << 4
	if eof {
		v |= 0x0001
	}
	binary.LittleEndian.PutUint16(d[0:2], v)
	d[2] = bitio.CRC8(d[0:2])
	d[3] = DelimiterSignature
	return d[:], nil
}

// decodeDelimiter parses and validates a delimiter, returning the MPDU
// length and EOF flag.
func decodeDelimiter(d []byte) (n int, eof bool, err error) {
	if len(d) < DelimiterLen {
		return 0, false, fmt.Errorf("dot11: truncated delimiter (%d bytes)", len(d))
	}
	if d[3] != DelimiterSignature {
		return 0, false, fmt.Errorf("dot11: bad delimiter signature 0x%02x", d[3])
	}
	if bitio.CRC8(d[0:2]) != d[2] {
		return 0, false, fmt.Errorf("dot11: delimiter CRC mismatch")
	}
	v := binary.LittleEndian.Uint16(d[0:2])
	return int(v >> 4), v&1 != 0, nil
}

// AMPDU is an aggregate of MPDUs ready for PHY transmission.
type AMPDU struct {
	Subframes [][]byte // each element is a complete MPDU including FCS
}

// Aggregate builds an A-MPDU from MPDUs. It enforces the 64-subframe and
// per-MPDU length limits of 802.11n.
func Aggregate(mpdus [][]byte) (*AMPDU, error) {
	if len(mpdus) == 0 {
		return nil, fmt.Errorf("dot11: empty A-MPDU")
	}
	if len(mpdus) > MaxSubframes {
		return nil, fmt.Errorf("dot11: %d subframes exceeds the %d-subframe A-MPDU limit", len(mpdus), MaxSubframes)
	}
	agg := &AMPDU{Subframes: make([][]byte, len(mpdus))}
	for i, m := range mpdus {
		if len(m) > MaxMPDULen {
			return nil, fmt.Errorf("dot11: subframe %d length %d exceeds %d", i, len(m), MaxMPDULen)
		}
		agg.Subframes[i] = append([]byte(nil), m...)
	}
	return agg, nil
}

// Marshal serialises the aggregate to the PSDU byte stream handed to the
// PHY: delimiter + MPDU + padding per subframe.
func (a *AMPDU) Marshal() ([]byte, error) {
	var out []byte
	for i, m := range a.Subframes {
		d, err := encodeDelimiter(len(m), false)
		if err != nil {
			return nil, fmt.Errorf("dot11: subframe %d: %w", i, err)
		}
		out = append(out, d...)
		out = append(out, m...)
		if i != len(a.Subframes)-1 {
			for len(out)%4 != 0 {
				out = append(out, 0)
			}
		}
	}
	return out, nil
}

// SubframeBounds returns the [start, end) byte offsets of each subframe's
// MPDU (excluding its delimiter and padding) within the marshalled PSDU.
// The tag's timing logic uses these, scaled by the PHY rate, to know when
// each subframe is on the air.
func (a *AMPDU) SubframeBounds() ([][2]int, error) {
	bounds := make([][2]int, 0, len(a.Subframes))
	off := 0
	for i, m := range a.Subframes {
		if len(m) > MaxMPDULen { // the one error Marshal can return
			return nil, fmt.Errorf("dot11: subframe %d: MPDU length %d outside delimiter's 12-bit range", i, len(m))
		}
		off += DelimiterLen
		bounds = append(bounds, [2]int{off, off + len(m)})
		off += len(m)
		if i != len(a.Subframes)-1 {
			for off%4 != 0 {
				off++
			}
		}
	}
	return bounds, nil
}

// Deaggregate parses a received PSDU back into subframes, using the
// delimiter signature to resynchronise after corrupt regions, as real
// receivers do. Subframes whose delimiter is intact are returned even when
// their MPDU bytes are corrupt — FCS validation is the caller's job,
// mirroring the hardware split between de-aggregation and frame checking.
func Deaggregate(psdu []byte) ([]Subframe, error) {
	var subs []Subframe
	off := 0
	for off+DelimiterLen <= len(psdu) {
		n, eof, err := decodeDelimiter(psdu[off : off+DelimiterLen])
		if err != nil {
			// Slide one byte forward hunting for the 0x4E signature,
			// the standard's resynchronisation procedure.
			off++
			continue
		}
		if eof && n == 0 {
			// Padding delimiter; skip.
			off += DelimiterLen
			continue
		}
		if off+DelimiterLen+n > len(psdu) {
			return subs, fmt.Errorf("dot11: delimiter claims %d bytes but only %d remain", n, len(psdu)-off-DelimiterLen)
		}
		mpdu := append([]byte(nil), psdu[off+DelimiterLen:off+DelimiterLen+n]...)
		subs = append(subs, Subframe{MPDU: mpdu, EOF: eof})
		off += DelimiterLen + n
		for off%4 != 0 && off < len(psdu) {
			off++
		}
	}
	return subs, nil
}
