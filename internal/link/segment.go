// Package link is the reliable tag→client transfer layer on top of
// core.Codec frames — the error handling WiTAG §4.1 defers to future
// work. A payload larger than one frame is segmented into byte ranges,
// each carried by one CRC-protected frame; per-frame CRC verdicts drive
// selective-repeat re-query of only the failed ranges; rounds erased by a
// missed trigger or a lost block ACK are retried after capped exponential
// backoff; and an AIMD-style controller escalates FEC, interleave depth
// and segment size as the observed frame-error rate rises (see control.go
// and transfer.go).
package link

import (
	"fmt"
	"slices"

	"witag/internal/core"
)

// HeaderLen is the per-frame link header: 16-bit byte offset of the
// chunk in the transfer, then the 16-bit total transfer length. Offsets
// (rather than sequence numbers) let the sender re-split outstanding
// ranges when the coding controller shrinks segments mid-transfer without
// renumbering what was already delivered.
const HeaderLen = 4

// MaxChunk is the largest chunk one frame can carry.
const MaxChunk = core.MaxPayload - HeaderLen

// MaxTransfer is the largest payload a single transfer can move (the
// header's total field is 16 bits).
const MaxTransfer = 0xFFFF

// segment is a half-open byte range [start, end) of the transfer payload.
type segment struct{ start, end int }

func (s segment) len() int { return s.end - s.start }

// splitRange appends s, split into ranges of at most chunk bytes, to dst
// and returns the extended slice.
func splitRange(dst []segment, s segment, chunk int) []segment {
	if chunk < 1 {
		chunk = 1
	}
	if chunk > MaxChunk {
		chunk = MaxChunk
	}
	for at := s.start; at < s.end; at += chunk {
		dst = append(dst, segment{at, min(at+chunk, s.end)})
	}
	return dst
}

// buildFrame assembles the link-frame payload for one segment of the
// transfer, header ‖ chunk, in f's frame-payload storage. The core.Codec
// then adds SYNC/LEN/CRC and the configured coding.
func buildFrame(f *FrameSender, payload []byte, seg segment) []byte {
	hdr := [HeaderLen]byte{byte(seg.start >> 8), byte(seg.start), byte(len(payload) >> 8), byte(len(payload))}
	return f.Payload(hdr[:], payload[seg.start:seg.end])
}

// parseFrame splits a decoded link-frame payload into its header fields
// and chunk.
func parseFrame(fp []byte) (off, total int, chunk []byte, err error) {
	if len(fp) < HeaderLen {
		return 0, 0, nil, fmt.Errorf("link: frame payload %d bytes, need ≥%d", len(fp), HeaderLen)
	}
	off = int(fp[0])<<8 | int(fp[1])
	total = int(fp[2])<<8 | int(fp[3])
	chunk = fp[HeaderLen:]
	if off+len(chunk) > total {
		return 0, 0, nil, fmt.Errorf("link: chunk [%d,%d) overruns %d-byte transfer", off, off+len(chunk), total)
	}
	return off, total, chunk, nil
}

// Reassembler is the client-side buffer: it learns the transfer length
// from the first frame header and fills byte ranges as frames arrive, in
// any order and with duplicates (a retransmitted range overwrites with
// identical bytes — every chunk passed frame CRC). The zero value is
// ready.
type Reassembler struct {
	buf []byte // the transfer; empty until the first frame fixes its length
	got []bool
}

// reset empties r for a new transfer, keeping its storage.
func (r *Reassembler) reset() { r.buf, r.got = r.buf[:0], r.got[:0] }

// Add stores one verified chunk. The first call fixes the transfer
// length; later frames must agree.
func (r *Reassembler) Add(off, total int, chunk []byte) error {
	if total < 1 || total > MaxTransfer {
		return fmt.Errorf("link: transfer length %d outside [1,%d]", total, MaxTransfer)
	}
	if len(r.buf) == 0 {
		r.buf = slices.Grow(r.buf, total)[:total]
		r.got = slices.Grow(r.got, total)[:total]
		clear(r.got)
	}
	if total != len(r.buf) {
		return fmt.Errorf("link: frame says %d-byte transfer, earlier frames said %d", total, len(r.buf))
	}
	if off < 0 || off+len(chunk) > total {
		return fmt.Errorf("link: chunk [%d,%d) outside %d-byte transfer", off, off+len(chunk), total)
	}
	copy(r.buf[off:], chunk)
	for i := off; i < off+len(chunk); i++ {
		r.got[i] = true
	}
	return nil
}

// Missing counts bytes not yet received.
func (r *Reassembler) Missing() int {
	if len(r.buf) == 0 {
		return -1 // length unknown until the first frame
	}
	n := 0
	for _, g := range r.got {
		if !g {
			n++
		}
	}
	return n
}

// Payload returns the reassembled transfer, in fresh storage; it fails
// while gaps remain.
func (r *Reassembler) Payload() ([]byte, error) {
	if m := r.Missing(); m != 0 {
		return nil, fmt.Errorf("link: transfer incomplete (%d bytes missing)", m)
	}
	return append([]byte(nil), r.buf...), nil
}
