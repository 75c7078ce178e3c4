// Package dot11 implements the subset of IEEE 802.11 framing that WiTAG
// rides on: MAC headers, QoS data frames, A-MPDU aggregation with MPDU
// delimiters, block ACK request/response frames, the HT MCS table, and the
// PPDU airtime arithmetic that determines WiTAG's throughput.
//
// The encode/decode style follows gopacket: each frame type knows how to
// serialise itself to wire bytes and how to decode itself from them, with
// strict validation and no hidden state. All multi-byte MAC fields are
// little-endian as on the air.
package dot11

import (
	"encoding/binary"
	"fmt"

	"witag/internal/bitio"
)

// MACAddr is a 48-bit IEEE MAC address.
type MACAddr [6]byte

// String renders the address in the canonical colon-separated form.
func (a MACAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// Frame type/subtype constants (IEEE 802.11-2012 §8.2.4.1.3). The values
// are the (Type<<2 | Subtype<<4) layout folded into a single identifier so
// that FrameControl can expose one enum-like field.
type FrameType byte

const (
	// Management
	TypeBeacon FrameType = 0x80
	// Control
	TypeBlockAckReq FrameType = 0x84
	TypeBlockAck    FrameType = 0x94
	TypeAck         FrameType = 0xD4
	// Data
	TypeData     FrameType = 0x08
	TypeQoSData  FrameType = 0x88
	TypeQoSNull  FrameType = 0xC8
	TypeDataNull FrameType = 0x48
)

// String names the frame type for diagnostics.
func (t FrameType) String() string {
	switch t {
	case TypeBeacon:
		return "Beacon"
	case TypeBlockAckReq:
		return "BlockAckReq"
	case TypeBlockAck:
		return "BlockAck"
	case TypeAck:
		return "Ack"
	case TypeData:
		return "Data"
	case TypeQoSData:
		return "QoSData"
	case TypeQoSNull:
		return "QoSNull"
	case TypeDataNull:
		return "DataNull"
	default:
		return fmt.Sprintf("FrameType(0x%02x)", byte(t))
	}
}

// FrameControl is the first two octets of every 802.11 MAC header.
type FrameControl struct {
	Type      FrameType
	ToDS      bool
	FromDS    bool
	Retry     bool
	PwrMgmt   bool
	MoreData  bool
	Protected bool // set when the frame body is encrypted (WEP/CCMP)
	Order     bool
}

// Marshal packs the frame control field into its 2-byte wire form.
func (fc FrameControl) Marshal() [2]byte {
	var b [2]byte
	b[0] = byte(fc.Type)
	if fc.ToDS {
		b[1] |= 0x01
	}
	if fc.FromDS {
		b[1] |= 0x02
	}
	if fc.Retry {
		b[1] |= 0x08
	}
	if fc.PwrMgmt {
		b[1] |= 0x10
	}
	if fc.MoreData {
		b[1] |= 0x20
	}
	if fc.Protected {
		b[1] |= 0x40
	}
	if fc.Order {
		b[1] |= 0x80
	}
	return b
}

// UnmarshalFrameControl decodes a 2-byte frame control field.
func UnmarshalFrameControl(b [2]byte) FrameControl {
	return FrameControl{
		Type:      FrameType(b[0]),
		ToDS:      b[1]&0x01 != 0,
		FromDS:    b[1]&0x02 != 0,
		Retry:     b[1]&0x08 != 0,
		PwrMgmt:   b[1]&0x10 != 0,
		MoreData:  b[1]&0x20 != 0,
		Protected: b[1]&0x40 != 0,
		Order:     b[1]&0x80 != 0,
	}
}

// QoSDataFrame is an 802.11 QoS data (or QoS null) MPDU. WiTAG query
// subframes are QoS null frames: a bare 26-byte MAC header with no payload,
// minimising airtime per tag bit (§4.1 of the paper).
type QoSDataFrame struct {
	FC       FrameControl
	Duration uint16
	Addr1    MACAddr // receiver (AP)
	Addr2    MACAddr // transmitter (client)
	Addr3    MACAddr // BSSID
	SeqNum   uint16  // 12-bit sequence number
	FragNum  byte    // 4-bit fragment number
	TID      byte    // 4-bit traffic identifier
	Body     []byte  // payload (possibly ciphertext); nil for QoS null
}

// QoSHeaderLen is the length of a QoS data MAC header in bytes.
const QoSHeaderLen = 26

// Marshal serialises the MPDU including its trailing FCS.
func (f *QoSDataFrame) Marshal() ([]byte, error) {
	if f.SeqNum > 0x0FFF {
		return nil, fmt.Errorf("dot11: sequence number %d exceeds 12 bits", f.SeqNum)
	}
	if f.FragNum > 0x0F {
		return nil, fmt.Errorf("dot11: fragment number %d exceeds 4 bits", f.FragNum)
	}
	if f.TID > 0x0F {
		return nil, fmt.Errorf("dot11: TID %d exceeds 4 bits", f.TID)
	}
	buf := make([]byte, 0, QoSHeaderLen+len(f.Body)+4)
	fcb := f.FC.Marshal()
	buf = append(buf, fcb[0], fcb[1])
	buf = binary.LittleEndian.AppendUint16(buf, f.Duration)
	buf = append(buf, f.Addr1[:]...)
	buf = append(buf, f.Addr2[:]...)
	buf = append(buf, f.Addr3[:]...)
	seqCtl := f.SeqNum<<4 | uint16(f.FragNum)
	buf = binary.LittleEndian.AppendUint16(buf, seqCtl)
	qosCtl := uint16(f.TID)
	buf = binary.LittleEndian.AppendUint16(buf, qosCtl)
	buf = append(buf, f.Body...)
	return bitio.AppendFCS(buf), nil
}

// UnmarshalQoSData decodes an MPDU produced by Marshal. It verifies the FCS
// and returns an error when the frame is corrupt — exactly the check an AP
// applies before setting the subframe's bit in a block ACK.
func UnmarshalQoSData(p []byte) (*QoSDataFrame, error) {
	body, ok := bitio.CheckFCS(p)
	if !ok {
		return nil, ErrBadFCS
	}
	if len(body) < QoSHeaderLen {
		return nil, fmt.Errorf("dot11: MPDU too short for QoS header: %d bytes", len(body))
	}
	var f QoSDataFrame
	f.FC = UnmarshalFrameControl([2]byte{body[0], body[1]})
	f.Duration = binary.LittleEndian.Uint16(body[2:4])
	copy(f.Addr1[:], body[4:10])
	copy(f.Addr2[:], body[10:16])
	copy(f.Addr3[:], body[16:22])
	seqCtl := binary.LittleEndian.Uint16(body[22:24])
	f.SeqNum = seqCtl >> 4
	f.FragNum = byte(seqCtl & 0x0F)
	qosCtl := binary.LittleEndian.Uint16(body[24:26])
	f.TID = byte(qosCtl & 0x0F)
	if len(body) > QoSHeaderLen {
		f.Body = append([]byte(nil), body[QoSHeaderLen:]...)
	}
	return &f, nil
}

// ErrBadFCS reports an MPDU whose frame check sequence failed — the event a
// WiTAG tag induces on purpose.
var ErrBadFCS = fmt.Errorf("dot11: FCS check failed")
