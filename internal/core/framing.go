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

// Encode frames payload into the tag bit sequence to transmit.
func (c Codec) Encode(payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("core: payload %d bytes exceeds %d", len(payload), MaxPayload)
	}
	frame := make([]byte, 0, len(payload)+4)
	frame = append(frame, SyncByte, byte(len(payload)))
	frame = append(frame, payload...)
	crc := bitio.CRC16(frame)
	frame = append(frame, byte(crc>>8), byte(crc))

	var bits []byte
	if c.FEC {
		bits = bitio.HammingEncode(frame)
	} else {
		bits = bitio.BytesToBits(frame)
	}
	return c.interleave(bits)
}

// Decode recovers the payload from received tag bits. It reports the
// number of FEC-corrected bit errors. The payload never shares memory
// with bits, so the caller may reuse bits at once.
func (c Codec) Decode(bits []byte) (payload []byte, corrected int, err error) {
	deint, err := c.deinterleave(bits)
	if err != nil {
		return nil, 0, err
	}
	var frame []byte
	if c.FEC {
		// Interleaver padding may leave a partial codeword of zeros at
		// the tail; drop it before FEC decoding.
		deint = deint[:len(deint)/16*16]
		frame, corrected, err = bitio.HammingDecode(deint)
		if err != nil {
			// deint holds whole codewords, so the only failure is
			// bitio.ErrUncorrectable.
			return nil, corrected, ErrFEC
		}
	} else {
		frame = bitio.BitsToBytes(deint[:len(deint)/8*8])
	}
	if len(frame) < 4 {
		return nil, corrected, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(frame))
	}
	if frame[0] != SyncByte {
		return nil, corrected, fmt.Errorf("%w: 0x%02x", ErrBadSync, frame[0])
	}
	n := int(frame[1])
	if len(frame) < n+4 {
		return nil, corrected, fmt.Errorf("%w: LEN says %d payload bytes but frame has only %d", ErrLenMismatch, n, len(frame)-4)
	}
	frame = frame[:n+4] // strip interleaver padding bytes
	wantCRC := uint16(frame[n+2])<<8 | uint16(frame[n+3])
	if bitio.CRC16(frame[:n+2]) != wantCRC {
		return nil, corrected, ErrFrameCRC
	}
	// frame is freshly decoded, never bits itself.
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

// interleave writes bits row-wise into a depth×⌈n/depth⌉ matrix and reads
// column-wise, padding with zeros; deinterleave inverts it. Padding is
// deterministic so Decode can strip it by length arithmetic.
func (c Codec) interleave(bits []byte) ([]byte, error) {
	d := c.InterleaveDepth
	if d <= 1 {
		return bits, nil
	}
	cols := (len(bits) + d - 1) / d
	out := make([]byte, d*cols)
	for row := 0; row*cols < len(bits); row++ {
		for col, b := range bits[row*cols : min(row*cols+cols, len(bits))] {
			out[col*d+row] = b
		}
	}
	return out, nil
}

func (c Codec) deinterleave(bits []byte) ([]byte, error) {
	d := c.InterleaveDepth
	if d <= 1 {
		return bits, nil
	}
	if len(bits)%d != 0 {
		return nil, fmt.Errorf("core: interleaved length %d not a multiple of depth %d", len(bits), d)
	}
	cols := len(bits) / d
	out := make([]byte, len(bits))
	i := 0
	for col := 0; col < cols; col++ {
		for row := 0; row < d; row++ {
			out[row*cols+col] = bits[i]
			i++
		}
	}
	return out, nil
}
