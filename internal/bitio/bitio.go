// Package bitio provides the bit-level primitives shared by the PHY and MAC
// layers: bit-slice packing, the 802.11 frame-check CRC-32, the
// A-MPDU delimiter CRC-8, and the Hamming(7,4) code used by WiTAG's
// tag-data FEC framing.
//
// Throughout the simulator a "bit slice" is a []byte whose elements are 0
// or 1, one bit per element. That representation trades 8x memory for
// directness: the OFDM chain (interleaving, puncturing, soft demapping)
// manipulates individual coded bits constantly, and profiling shows the
// packed representation's shift/mask arithmetic dominates otherwise.
package bitio

import "fmt"

// BytesToBits unpacks packed bytes into a bit slice, LSB first within each
// byte — the order in which 802.11 serialises octets onto the air.
func BytesToBits(p []byte) []byte {
	return AppendBits(make([]byte, 0, len(p)*8), p)
}

// AppendBits appends p unpacked as BytesToBits unpacks it to bits and
// returns the extended slice.
func AppendBits(bits, p []byte) []byte {
	for _, b := range p {
		for i := 0; i < 8; i++ {
			bits = append(bits, b>>uint(i)&1)
		}
	}
	return bits
}

// BitsToBytes packs a bit slice (one bit per element, LSB first) into
// bytes. Trailing bits that do not fill a byte are zero-padded.
func BitsToBytes(bits []byte) []byte {
	return AppendBytes(make([]byte, 0, (len(bits)+7)/8), bits)
}

// AppendBytes appends bits packed as BitsToBytes packs them to p and
// returns the extended slice.
func AppendBytes(p, bits []byte) []byte {
	for i := 0; i < len(bits); i += 8 {
		var b byte
		for j, bit := range bits[i:min(i+8, len(bits))] {
			if bit != 0 {
				b |= 1 << uint(j)
			}
		}
		p = append(p, b)
	}
	return p
}

// HammingDistance counts positions where the two equal-length bit slices
// differ.
func HammingDistance(a, b []byte) (int, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("bitio: distance length mismatch %d vs %d", len(a), len(b))
	}
	d := 0
	for i := range a {
		if (a[i]^b[i])&1 != 0 {
			d++
		}
	}
	return d, nil
}
