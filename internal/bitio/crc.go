package bitio

import "hash/crc32"

// FCS computes the 802.11 frame check sequence: the standard CRC-32
// (IEEE 802.3 polynomial) over the MAC header and frame body. hash/crc32's
// IEEE table implements exactly this polynomial with the reflected
// input/output and final complement the standard requires.
func FCS(p []byte) uint32 {
	return crc32.ChecksumIEEE(p)
}

// AppendFCS returns p with its 4-byte little-endian FCS appended, as
// transmitted on the air.
func AppendFCS(p []byte) []byte {
	f := FCS(p)
	return append(append([]byte(nil), p...),
		byte(f), byte(f>>8), byte(f>>16), byte(f>>24))
}

// CheckFCS verifies the trailing 4-byte FCS of p and returns the payload
// without it. ok is false when p is too short or the checksum mismatches.
func CheckFCS(p []byte) (payload []byte, ok bool) {
	if len(p) < 4 {
		return nil, false
	}
	body := p[:len(p)-4]
	want := uint32(p[len(p)-4]) | uint32(p[len(p)-3])<<8 |
		uint32(p[len(p)-2])<<16 | uint32(p[len(p)-1])<<24
	return body, FCS(body) == want
}

// crc8Table is the lookup table for the CRC-8 used by the 802.11n A-MPDU
// MPDU delimiter: polynomial x^8 + x^2 + x + 1 (0x07), initial value 0xFF,
// final XOR 0xFF (per IEEE 802.11-2012 §8.6.1).
var crc8Table [256]byte

func init() {
	const poly = 0x07
	for i := 0; i < 256; i++ {
		crc := byte(i)
		for bit := 0; bit < 8; bit++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ poly
			} else {
				crc <<= 1
			}
		}
		crc8Table[i] = crc
	}
}

// CRC8 computes the A-MPDU delimiter CRC over p.
func CRC8(p []byte) byte {
	crc := byte(0xFF)
	for _, b := range p {
		crc = crc8Table[crc^b]
	}
	return crc ^ 0xFF
}

// crc16Table is the lookup table for CRC16, one entry per leading byte:
// the polynomial 0x1021's remainder after shifting that byte through.
var crc16Table [256]uint16

func init() {
	const poly = 0x1021
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for bit := 0; bit < 8; bit++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ poly
			} else {
				crc <<= 1
			}
		}
		crc16Table[i] = crc
	}
}

// CRC16 computes CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no
// reflection, no final XOR), used to protect WiTAG tag-data frames.
func CRC16(p []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range p {
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	return crc
}
