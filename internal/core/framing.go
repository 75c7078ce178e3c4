// Package core implements WiTAG — the paper's contribution. A querier
// builds special A-MPDUs whose subframes exist only to be selectively
// corrupted; the tag flips its reflection phase during "0" subframes; the
// AP's compressed block ACK, read by any unmodified client, *is* the tag's
// bitstream.
//
// Beyond the paper's prototype, the package implements the error
// detection/correction layer §4.1 defers to future work (CRC-16 framing
// with SECDED FEC and interleaving) and multi-tag addressing via distinct
// trigger patterns.
package core

import (
	"errors"
	"fmt"

	"witag/internal/bitio"
)

// Tag-data frame format (all lengths in tag bits, i.e. subframes):
//
//	SYNC (8 bits, 0xD5) ‖ LEN (8 bits) ‖ payload ‖ CRC-16
//
// optionally passed through SECDED(8,4) FEC and a block interleaver. The
// interleaver matters because tag-bit errors are bursty: a missed trigger
// or a fade corrupts consecutive subframes, and SECDED corrects only one
// error per 8-bit codeword.

// SyncByte opens every tag-data frame.
const SyncByte = 0xD5

// MaxPayload is the largest payload a frame can carry (LEN is one byte).
const MaxPayload = 255

// Codec bundles the framing options.
type Codec struct {
	// FEC enables SECDED(8,4) encoding.
	FEC bool
	// InterleaveDepth spreads the (possibly FEC-coded) bitstream over
	// this many rows; 0 or 1 disables interleaving.
	InterleaveDepth int
}

// CodecBuffers is the storage a Codec encodes and decodes frames in: the
// frame bytes (SYNC‖LEN‖payload‖CRC), its coded bits and its interleaved
// bits. It is owned by the caller and reused from frame to frame, so a
// frame costs no allocation once the buffers have grown; what EncodeInto,
// Deinterleave and DecodeCoded return aliases it until its next use. The
// zero value is ready.
type CodecBuffers struct {
	frame []byte // the frame bytes, encoded or decoded
	coded []byte // the frame's SECDED or plain bits, before interleaving or after deinterleaving
	air   []byte // the interleaved bits
}

// Encode frames payload into the tag bit sequence to transmit, in fresh
// storage.
func (c Codec) Encode(payload []byte) ([]byte, error) {
	return c.EncodeInto(new(CodecBuffers), payload)
}

// Decode recovers the payload from received tag bits. It reports the
// number of FEC-corrected bit errors. The payload is fresh storage that
// never shares memory with bits, so the caller may reuse bits at once.
func (c Codec) Decode(bits []byte) (payload []byte, corrected int, err error) {
	b := new(CodecBuffers)
	coded, err := c.Deinterleave(b, bits)
	if err != nil {
		return nil, 0, err
	}
	return c.DecodeCoded(b, coded)
}

// EncodeInto is Encode into b: the returned bits alias b. payload must
// not alias b.
func (c Codec) EncodeInto(b *CodecBuffers, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("core: payload %d bytes exceeds %d", len(payload), MaxPayload)
	}
	frame := append(resize(b.frame, len(payload)+4)[:0], SyncByte, byte(len(payload)))
	frame = append(frame, payload...)
	crc := bitio.CRC16(frame)
	b.frame = append(frame, byte(crc>>8), byte(crc))

	coded := resize(b.coded, c.EncodedBits(len(payload)))[:0]
	if c.FEC {
		b.coded = bitio.AppendHammingEncode(coded, b.frame)
	} else {
		b.coded = bitio.AppendBits(coded, b.frame)
	}
	if c.InterleaveDepth <= 1 {
		return b.coded, nil
	}
	b.air = c.interleave(b.air, b.coded)
	return b.air, nil
}

// Deinterleave is Decode's first step: it undoes the interleaver on the
// received bits into b and returns the coded bits, which alias b, or bits
// itself when the codec does not interleave. It fails only on a length
// that is not a whole number of columns.
func (c Codec) Deinterleave(b *CodecBuffers, bits []byte) ([]byte, error) {
	d := c.InterleaveDepth
	if d <= 1 {
		return bits, nil
	}
	if len(bits)%d != 0 {
		return nil, fmt.Errorf("core: interleaved length %d not a multiple of depth %d", len(bits), d)
	}
	b.coded = deinterleave(b.coded, bits, d)
	return b.coded, nil
}

// DecodeCoded is Decode's second step: the FEC decode (or bit packing),
// sync, length and CRC checks of the coded bits Deinterleave returned.
// The payload aliases b's frame bytes, never coded.
func (c Codec) DecodeCoded(b *CodecBuffers, coded []byte) (payload []byte, corrected int, err error) {
	if c.FEC {
		// Interleaver padding may leave a partial codeword of zeros at
		// the tail; drop it before FEC decoding.
		frame := resize(b.frame, len(coded)/16)[:0]
		b.frame, corrected, err = bitio.AppendHammingDecode(frame, coded[:len(coded)/16*16])
		if err != nil {
			// coded is cut to whole codewords, so the only failure is
			// bitio.ErrUncorrectable.
			return nil, corrected, ErrFEC
		}
	} else {
		b.frame = bitio.AppendBytes(resize(b.frame, len(coded)/8)[:0], coded[:len(coded)/8*8])
	}
	// Failures return the bare class: a transfer counts them by class and
	// never shows them, and a lost frame must cost no allocation.
	frame := b.frame
	if len(frame) < 4 {
		return nil, corrected, ErrShortFrame
	}
	if frame[0] != SyncByte {
		return nil, corrected, ErrBadSync
	}
	n := int(frame[1])
	if len(frame) < n+4 {
		return nil, corrected, ErrLenMismatch
	}
	frame = frame[:n+4] // strip interleaver padding bytes
	wantCRC := uint16(frame[n+2])<<8 | uint16(frame[n+3])
	if bitio.CRC16(frame[:n+2]) != wantCRC {
		return nil, corrected, ErrFrameCRC
	}
	return frame[2 : n+2], corrected, nil
}

// Decode failure classes, distinguishable with errors.Is so an ARQ layer
// can tell framing loss ("resync and re-query") from residual corruption
// inside a well-framed stream (a coding-escalation signal).
var (
	// ErrFrameCRC reports a tag-data frame whose CRC-16 failed — residual
	// errors the FEC could not repair.
	ErrFrameCRC = errors.New("core: tag frame CRC mismatch")
	// ErrFEC reports a codeword the SECDED FEC detected as corrupt but
	// could not correct — residual corruption, like ErrFrameCRC. It wraps
	// bitio.ErrUncorrectable.
	ErrFEC = fmt.Errorf("core: FEC: %w", bitio.ErrUncorrectable)
	// ErrBadSync reports a frame whose first byte is not SyncByte: the
	// receiver is not aligned to a frame at all.
	ErrBadSync = errors.New("core: bad sync byte")
	// ErrShortFrame reports a bit stream too short to hold even the
	// SYNC/LEN/CRC skeleton.
	ErrShortFrame = errors.New("core: frame too short")
	// ErrLenMismatch reports a LEN field promising more payload than the
	// received stream carries — a corrupted length or a truncated read.
	ErrLenMismatch = errors.New("core: frame length mismatch")
)

// DesyncError reports whether a Decode failure indicates the receiver
// lost frame alignment (re-query from the top) rather than residual
// in-frame corruption (ErrFrameCRC, ErrFEC) that adaptive
// coding can address.
func DesyncError(err error) bool {
	return errors.Is(err, ErrBadSync) || errors.Is(err, ErrShortFrame) || errors.Is(err, ErrLenMismatch)
}

// EncodedBits returns the number of tag bits (subframes) Encode will emit
// for a payload of n bytes.
func (c Codec) EncodedBits(n int) int {
	frameBytes := n + 4
	if c.FEC {
		return frameBytes * 16
	}
	return frameBytes * 8
}

// interleave writes bits row-wise into a depth×⌈n/depth⌉ matrix in dst's
// storage and reads column-wise, padding with zeros; deinterleave inverts
// it. Padding is deterministic so Decode can strip it by length
// arithmetic, and it is written afresh every time: storage a longer frame
// left behind must not leak into a shorter one's padding.
func (c Codec) interleave(dst, bits []byte) []byte {
	d := c.InterleaveDepth
	cols := (len(bits) + d - 1) / d
	out := resize(dst, d*cols)
	clear(out)
	for row := 0; row*cols < len(bits); row++ {
		for col, b := range bits[row*cols : min(row*cols+cols, len(bits))] {
			out[col*d+row] = b
		}
	}
	return out
}

// deinterleave reads bits, a whole number of depth-d columns, back into
// row order in dst's storage.
func deinterleave(dst, bits []byte, d int) []byte {
	cols := len(bits) / d
	out := resize(dst, len(bits))
	i := 0
	for col := 0; col < cols; col++ {
		for row := 0; row < d; row++ {
			out[row*cols+col] = bits[i]
			i++
		}
	}
	return out
}
