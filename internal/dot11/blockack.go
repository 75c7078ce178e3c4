package dot11

import (
	"encoding/binary"
	"fmt"

	"witag/internal/bitio"
)

// Compressed block ACK (IEEE 802.11-2012 §8.3.1.9). After receiving an
// A-MPDU the AP reports, in a 64-bit bitmap anchored at a starting sequence
// number, which MPDUs arrived with a valid FCS. WiTAG's receiver reads the
// tag's data straight out of this bitmap: bit set ⇒ subframe decoded ⇒ tag
// sent 1; bit clear ⇒ subframe corrupted ⇒ tag sent 0.

// BlockAck is a compressed block ACK control frame.
type BlockAck struct {
	Duration uint16
	RA       MACAddr // receiver of the BA (the A-MPDU's sender)
	TA       MACAddr // transmitter of the BA (the AP)
	TID      byte    // 4-bit traffic identifier
	StartSeq uint16  // 12-bit starting sequence number
	Bitmap   uint64  // bit i ⇔ MPDU with sequence StartSeq+i received OK
}

// baControl builds the 2-byte BA control field for a compressed BA.
func (ba *BlockAck) baControl() uint16 {
	// bit0 BA Ack Policy=0 (normal), bits1-2 compressed BA (multi-TID=0,
	// compressed=1), bits 12-15 TID.
	return 0x0004 | uint16(ba.TID)<<12
}

// Marshal serialises the block ACK including FCS.
func (ba *BlockAck) Marshal() ([]byte, error) {
	if ba.TID > 0x0F {
		return nil, fmt.Errorf("dot11: TID %d exceeds 4 bits", ba.TID)
	}
	if ba.StartSeq > 0x0FFF {
		return nil, fmt.Errorf("dot11: starting sequence %d exceeds 12 bits", ba.StartSeq)
	}
	buf := make([]byte, 0, 32)
	fcb := FrameControl{Type: TypeBlockAck}.Marshal()
	buf = append(buf, fcb[0], fcb[1])
	buf = binary.LittleEndian.AppendUint16(buf, ba.Duration)
	buf = append(buf, ba.RA[:]...)
	buf = append(buf, ba.TA[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, ba.baControl())
	buf = binary.LittleEndian.AppendUint16(buf, ba.StartSeq<<4)
	buf = binary.LittleEndian.AppendUint64(buf, ba.Bitmap)
	return bitio.AppendFCS(buf), nil
}

// SetAcked marks the MPDU with the given sequence number as received.
// It returns an error when seq falls outside the 64-frame bitmap window.
func (ba *BlockAck) SetAcked(seq uint16) error {
	offset := int(seq-ba.StartSeq) & 0x0FFF
	if offset >= 64 {
		return fmt.Errorf("dot11: sequence %d outside BA window starting at %d", seq, ba.StartSeq)
	}
	ba.Bitmap |= 1 << uint(offset)
	return nil
}

// BitmapBits expands the first n bitmap positions into a bit slice,
// position 0 first — the exact byte stream a WiTAG reader hands to the tag
// data decoder.
func (ba *BlockAck) BitmapBits(n int) ([]byte, error) {
	if n < 0 || n > 64 {
		return nil, fmt.Errorf("dot11: bitmap window is 64 bits, requested %d", n)
	}
	bits := make([]byte, n)
	for i := 0; i < n; i++ {
		bits[i] = byte(ba.Bitmap >> uint(i) & 1)
	}
	return bits, nil
}
