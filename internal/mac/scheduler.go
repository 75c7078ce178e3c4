// Package mac implements the 802.11 MAC-layer machinery WiTAG rides on:
// an A-MPDU scheduler and contention-based channel access timing.
package mac

import (
	"fmt"

	"witag/internal/crypto80211"
	"witag/internal/dot11"
)

// AMPDUScheduler builds standards-compliant aggregates from MPDU payloads,
// assigning sequence numbers and optionally encrypting each MPDU — the
// sender half of the machinery a WiTAG querier drives.
type AMPDUScheduler struct {
	Src, Dst, BSSID dot11.MACAddr
	TID             byte
	Cipher          crypto80211.Cipher // nil for an open network
	nextSeq         uint16
}

// NewAMPDUScheduler returns a scheduler for the src→dst stream.
func NewAMPDUScheduler(src, dst, bssid dot11.MACAddr, tid byte) (*AMPDUScheduler, error) {
	if tid > 0x0F {
		return nil, fmt.Errorf("mac: TID %d exceeds 4 bits", tid)
	}
	return &AMPDUScheduler{Src: src, Dst: dst, BSSID: bssid, TID: tid}, nil
}

// Reserve consumes the sequence numbers of an n-subframe A-MPDU without
// building it and returns the first: the same window, and the same
// scheduler state afterwards, as BuildAMPDU with n payloads.
func (s *AMPDUScheduler) Reserve(n int) (uint16, error) {
	if n < 1 || n > dot11.MaxSubframes {
		return 0, fmt.Errorf("mac: %d payloads outside [1,%d]", n, dot11.MaxSubframes)
	}
	start := s.nextSeq
	s.nextSeq = (s.nextSeq + uint16(n)) & 0x0FFF
	return start, nil
}

// BuildAMPDU aggregates payloads into one A-MPDU, consuming sequence
// numbers. Empty payloads become QoS null subframes. It returns the
// aggregate and the starting sequence number of its BA window.
func (s *AMPDUScheduler) BuildAMPDU(payloads [][]byte) (*dot11.AMPDU, uint16, error) {
	if len(payloads) == 0 || len(payloads) > dot11.MaxSubframes {
		return nil, 0, fmt.Errorf("mac: %d payloads outside [1,%d]", len(payloads), dot11.MaxSubframes)
	}
	start := s.nextSeq
	mpdus := make([][]byte, 0, len(payloads))
	for _, p := range payloads {
		body := p
		protected := false
		if s.Cipher != nil && len(p) > 0 {
			sealed, err := s.Cipher.Encrypt(p)
			if err != nil {
				return nil, 0, fmt.Errorf("mac: encrypt: %w", err)
			}
			body = sealed
			protected = true
		}
		ftype := dot11.TypeQoSData
		if len(p) == 0 {
			ftype = dot11.TypeQoSNull
		}
		f := &dot11.QoSDataFrame{
			FC:     dot11.FrameControl{Type: ftype, ToDS: true, Protected: protected},
			Addr1:  s.Dst,
			Addr2:  s.Src,
			Addr3:  s.BSSID,
			SeqNum: s.nextSeq,
			TID:    s.TID,
			Body:   body,
		}
		w, err := f.Marshal()
		if err != nil {
			return nil, 0, err
		}
		mpdus = append(mpdus, w)
		s.nextSeq = (s.nextSeq + 1) & 0x0FFF
	}
	agg, err := dot11.Aggregate(mpdus)
	if err != nil {
		return nil, 0, err
	}
	return agg, start, nil
}
