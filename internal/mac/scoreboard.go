// Package mac implements the 802.11 MAC-layer machinery WiTAG rides on:
// the receiver-side block-ACK scoreboard an AP keeps per traffic stream,
// an A-MPDU scheduler, Minstrel-style rate adaptation for picking the
// robust query rate, and contention-based channel access timing.
package mac

import (
	"fmt"

	"witag/internal/dot11"
)

// Scoreboard is the AP-side record of which MPDU sequence numbers arrived
// with a valid FCS inside the current block-ACK window — the state the AP
// serialises into the compressed BA that WiTAG readers mine for tag data.
type Scoreboard struct {
	startSeq uint16
	received uint64 // bit off set: startSeq+off arrived; the BA bitmap as is
}

// NewScoreboard opens a scoreboard at the given starting sequence number.
func NewScoreboard(startSeq uint16) (*Scoreboard, error) {
	if startSeq > 0x0FFF {
		return nil, fmt.Errorf("mac: starting sequence %d exceeds 12 bits", startSeq)
	}
	return &Scoreboard{startSeq: startSeq}, nil
}

// Record marks an MPDU sequence number as successfully received. Sequence
// numbers outside the 64-frame window are rejected, as real scoreboards do.
func (s *Scoreboard) Record(seq uint16) error {
	off := int(seq-s.startSeq) & 0x0FFF
	if off >= dot11.MaxSubframes {
		return fmt.Errorf("mac: sequence %d outside window [%d,%d)", seq, s.startSeq, s.startSeq+dot11.MaxSubframes)
	}
	s.received |= 1 << uint(off)
	return nil
}

// BlockAck serialises the scoreboard into a compressed BA addressed from
// ta to ra.
func (s *Scoreboard) BlockAck(ra, ta dot11.MACAddr, tid byte) *dot11.BlockAck {
	return &dot11.BlockAck{RA: ra, TA: ta, TID: tid, StartSeq: s.startSeq, Bitmap: s.received}
}

// Reset clears the scoreboard and moves the window.
func (s *Scoreboard) Reset(startSeq uint16) error {
	if startSeq > 0x0FFF {
		return fmt.Errorf("mac: starting sequence %d exceeds 12 bits", startSeq)
	}
	s.startSeq = startSeq
	s.received = 0
	return nil
}

// ReceiveAMPDU runs the AP's receive path over a PSDU: de-aggregate,
// FCS-check each subframe, record the survivors, and return the number of
// valid MPDUs. Decrypt failures (when a cipher is in use upstream) surface
// as FCS failures before this layer, so the scoreboard treats everything
// uniformly — precisely why WiTAG works under WPA.
func (s *Scoreboard) ReceiveAMPDU(psdu []byte) (int, error) {
	subs, err := dot11.Deaggregate(psdu)
	if err != nil {
		// A truncated tail still yields the subframes parsed so far.
		if subs == nil {
			return 0, err
		}
	}
	valid := 0
	for _, sub := range subs {
		f, err := dot11.UnmarshalQoSData(sub.MPDU)
		if err != nil {
			continue // corrupt subframe: not recorded, bit stays 0
		}
		if err := s.Record(f.SeqNum); err != nil {
			continue // outside window
		}
		valid++
	}
	return valid, nil
}
