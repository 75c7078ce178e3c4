package bitio

import (
	"errors"
	"fmt"
)

// Hamming(7,4) with an overall parity bit — SECDED(8,4) — is the FEC WiTAG
// uses for tag-data framing (the error-correction mechanism the paper lists
// as future work). Four data bits become eight transmitted bits; single-bit
// errors are corrected and double-bit errors detected. The short block
// length matters: a tag bit costs a whole MPDU subframe of airtime, so long
// block codes would add latency out of proportion to their gain, and
// subframe errors are close to independent across an A-MPDU (each corruption
// decision is a separate channel event).

// ErrUncorrectable reports a SECDED codeword with a detected but
// uncorrectable (double-bit) error. It is returned bare, without the
// codeword's position: decoding fails on every frame that a burst
// defeats, and formatting a message per failure costs more than the
// decode itself.
var ErrUncorrectable = errors.New("bitio: uncorrectable SECDED codeword")

// appendHammingNibble appends the SECDED(8,4) codeword of data's low 4
// bits to b.
func appendHammingNibble(b []byte, data byte) []byte {
	d1 := data & 1
	d2 := data >> 1 & 1
	d3 := data >> 2 & 1
	d4 := data >> 3 & 1
	p1 := d1 ^ d2 ^ d4
	p2 := d1 ^ d3 ^ d4
	p4 := d2 ^ d3 ^ d4
	overall := p1 ^ p2 ^ d1 ^ p4 ^ d2 ^ d3 ^ d4
	return append(b, p1, p2, d1, p4, d2, d3, d4, overall)
}

// HammingDecodeNibble decodes an 8-bit SECDED codeword. It returns the
// corrected nibble, whether a single-bit correction was applied, and
// ErrUncorrectable when a double-bit error is detected.
func HammingDecodeNibble(cw []byte) (data byte, corrected bool, err error) {
	if len(cw) != 8 {
		return 0, false, fmt.Errorf("bitio: SECDED codeword must be 8 bits, got %d", len(cw))
	}
	c := make([]byte, 8)
	for i, b := range cw {
		c[i] = b & 1
	}
	s1 := c[0] ^ c[2] ^ c[4] ^ c[6]
	s2 := c[1] ^ c[2] ^ c[5] ^ c[6]
	s4 := c[3] ^ c[4] ^ c[5] ^ c[6]
	syndrome := int(s1) | int(s2)<<1 | int(s4)<<2
	var overall byte
	for _, b := range c {
		overall ^= b
	}
	switch {
	case syndrome == 0 && overall == 0:
		// Clean codeword.
	case syndrome != 0 && overall == 1:
		// Single-bit error at position syndrome (1-indexed).
		c[syndrome-1] ^= 1
		corrected = true
	case syndrome == 0 && overall == 1:
		// Error in the overall parity bit itself; data is intact.
		corrected = true
	default: // syndrome != 0 && overall == 0
		return 0, false, ErrUncorrectable
	}
	data = c[2] | c[4]<<1 | c[5]<<2 | c[6]<<3
	return data, corrected, nil
}

// HammingEncode encodes packed bytes into a SECDED(8,4) bit slice, two
// codewords per input byte (low nibble first).
func HammingEncode(p []byte) []byte {
	out := make([]byte, 0, len(p)*16)
	for _, b := range p {
		out = appendHammingNibble(out, b&0x0F)
		out = appendHammingNibble(out, b>>4)
	}
	return out
}

// HammingDecode decodes a SECDED bit slice produced by HammingEncode back
// into packed bytes. It reports the number of corrected single-bit errors
// and fails with ErrUncorrectable on the first uncorrectable codeword.
func HammingDecode(bits []byte) (data []byte, correctedBits int, err error) {
	if len(bits)%16 != 0 {
		return nil, 0, fmt.Errorf("bitio: SECDED stream length %d is not a multiple of 16", len(bits))
	}
	data = make([]byte, 0, len(bits)/16)
	for i := 0; i < len(bits); i += 16 {
		lo, c1, err := HammingDecodeNibble(bits[i : i+8])
		if err != nil {
			return nil, correctedBits, err
		}
		hi, c2, err := HammingDecodeNibble(bits[i+8 : i+16])
		if err != nil {
			return nil, correctedBits, err
		}
		if c1 {
			correctedBits++
		}
		if c2 {
			correctedBits++
		}
		data = append(data, lo|hi<<4)
	}
	return data, correctedBits, nil
}
