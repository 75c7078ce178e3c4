package mac

import (
	"testing"
	"time"

	"witag/internal/crypto80211"
	"witag/internal/dot11"
	"witag/internal/stats"
)

var (
	src   = dot11.MACAddr{2, 0, 0, 0, 0, 1}
	dst   = dot11.MACAddr{2, 0, 0, 0, 0, 2}
	bssid = dst
)

func TestScoreboardBasics(t *testing.T) {
	sb, err := NewScoreboard(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Record(100); err != nil {
		t.Fatal(err)
	}
	if err := sb.Record(163); err != nil {
		t.Fatal(err)
	}
	if err := sb.Record(164); err == nil {
		t.Fatal("sequence outside 64-frame window accepted")
	}
	ba := sb.BlockAck(src, dst, 3)
	if !ba.Acked(100) || !ba.Acked(163) || ba.Acked(101) {
		t.Fatal("bitmap wrong")
	}
	if ba.TID != 3 || ba.StartSeq != 100 {
		t.Fatalf("BA header wrong: %+v", ba)
	}
	if err := sb.Reset(200); err != nil {
		t.Fatal(err)
	}
	if sb.BlockAck(src, dst, 0).Bitmap != 0 {
		t.Fatal("reset did not clear")
	}
	if _, err := NewScoreboard(4096); err != nil {
	} else {
		t.Fatal("13-bit start accepted")
	}
	if err := sb.Reset(4096); err == nil {
		t.Fatal("13-bit reset accepted")
	}
}

func TestScoreboardWraparound(t *testing.T) {
	sb, _ := NewScoreboard(4090)
	if err := sb.Record(3); err != nil { // 4090+13 wraps to 3
		t.Fatal(err)
	}
	ba := sb.BlockAck(src, dst, 0)
	if !ba.Acked(3) {
		t.Fatal("wrapped sequence not acked")
	}
}

// TestScoreboardBitmapProperty records random sequence numbers, in and
// out of the window and across the 12-bit wrap, and checks the block
// ACK against a per-offset bool record: bit i is set exactly when
// startSeq+i was recorded, Acked agrees, and Reset starts the next
// window empty.
func TestScoreboardBitmapProperty(t *testing.T) {
	rng := stats.NewRNG(17)
	sb, err := NewScoreboard(0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		start := uint16(rng.Intn(0x1000))
		if trial%5 == 0 {
			start = 0x1000 - uint16(rng.Intn(dot11.MaxSubframes)) // window spans the wrap
		} else if trial%5 == 1 {
			start = 0
		}
		start &= 0x0FFF
		if err := sb.Reset(start); err != nil {
			t.Fatal(err)
		}
		var want [dot11.MaxSubframes]bool
		for n := rng.Intn(100); n > 0; n-- {
			off := rng.Intn(dot11.MaxSubframes + 32)
			seq := (start + uint16(off)) & 0x0FFF
			err := sb.Record(seq)
			if inWindow := off < dot11.MaxSubframes; inWindow != (err == nil) {
				t.Fatalf("trial %d: Record(%d) at offset %d from %d: err %v", trial, seq, off, start, err)
			}
			if off < dot11.MaxSubframes {
				want[off] = true
			}
		}
		ba := sb.BlockAck(src, dst, 5)
		if ba.StartSeq != start || ba.TID != 5 || ba.RA != src || ba.TA != dst {
			t.Fatalf("trial %d: BA header %+v", trial, ba)
		}
		for off, ok := range want {
			if got := ba.Bitmap>>uint(off)&1 == 1; got != ok {
				t.Fatalf("trial %d: bitmap bit %d = %v, recorded %v", trial, off, got, ok)
			}
			if got := ba.Acked((start + uint16(off)) & 0x0FFF); got != ok {
				t.Fatalf("trial %d: Acked(offset %d) = %v, recorded %v", trial, off, got, ok)
			}
		}
	}
}

func TestSchedulerBuildsDecodableAMPDU(t *testing.T) {
	s, err := NewAMPDUScheduler(src, dst, bssid, 0)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{nil, []byte("hello"), nil}
	agg, start, err := s.BuildAMPDU(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 || s.NextSeq() != 3 {
		t.Fatalf("sequence accounting wrong: start=%d next=%d", start, s.NextSeq())
	}
	for i, m := range agg.Subframes {
		f, err := dot11.UnmarshalQoSData(m)
		if err != nil {
			t.Fatalf("subframe %d: %v", i, err)
		}
		if f.SeqNum != uint16(i) {
			t.Fatalf("subframe %d has seq %d", i, f.SeqNum)
		}
		if i == 1 && string(f.Body) != "hello" {
			t.Fatalf("payload = %q", f.Body)
		}
		if i != 1 && f.FC.Type != dot11.TypeQoSNull {
			t.Fatalf("empty payload should be QoS null, got %v", f.FC.Type)
		}
	}
}

func TestSchedulerSeqWraps12Bits(t *testing.T) {
	s, _ := NewAMPDUScheduler(src, dst, bssid, 0)
	s.nextSeq = 4095
	_, start, err := s.BuildAMPDU([][]byte{nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if start != 4095 || s.NextSeq() != 1 {
		t.Fatalf("wrap: start=%d next=%d", start, s.NextSeq())
	}
}

// TestReserveMatchesBuildAMPDU runs a reserving scheduler beside a building
// one across the 12-bit wrap: every window start and every next sequence
// number must agree.
func TestReserveMatchesBuildAMPDU(t *testing.T) {
	built, _ := NewAMPDUScheduler(src, dst, bssid, 0)
	reserved, _ := NewAMPDUScheduler(src, dst, bssid, 0)
	built.nextSeq, reserved.nextSeq = 0x0F80, 0x0F80
	for round, n := range []int{64, 1, 60, 63, 2, 64, 64, 7} {
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = []byte{0xFF}
		}
		_, wantStart, err := built.BuildAMPDU(payloads)
		if err != nil {
			t.Fatal(err)
		}
		start, err := reserved.Reserve(n)
		if err != nil {
			t.Fatal(err)
		}
		if start != wantStart || reserved.NextSeq() != built.NextSeq() {
			t.Fatalf("round %d (%d subframes): Reserve start=%#x next=%#x, BuildAMPDU start=%#x next=%#x",
				round, n, start, reserved.NextSeq(), wantStart, built.NextSeq())
		}
	}
	if built.NextSeq() >= 0x0F80 {
		t.Fatalf("sequence never wrapped: next=%#x", built.NextSeq())
	}
	for _, n := range []int{0, -1, dot11.MaxSubframes + 1} {
		if _, err := reserved.Reserve(n); err == nil {
			t.Fatalf("Reserve(%d) accepted", n)
		}
	}
}

func TestSchedulerValidation(t *testing.T) {
	if _, err := NewAMPDUScheduler(src, dst, bssid, 16); err == nil {
		t.Fatal("TID 16 accepted")
	}
	s, _ := NewAMPDUScheduler(src, dst, bssid, 0)
	if _, _, err := s.BuildAMPDU(nil); err == nil {
		t.Fatal("empty aggregate accepted")
	}
	many := make([][]byte, 65)
	if _, _, err := s.BuildAMPDU(many); err == nil {
		t.Fatal("65 subframes accepted")
	}
}

func TestSchedulerEncryptsWithCCMP(t *testing.T) {
	c, err := crypto80211.NewCCMP(make([]byte, 16), [6]byte(src), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewAMPDUScheduler(src, dst, bssid, 0)
	s.Cipher = c
	agg, _, err := s.BuildAMPDU([][]byte{[]byte("secret")})
	if err != nil {
		t.Fatal(err)
	}
	f, err := dot11.UnmarshalQoSData(agg.Subframes[0])
	if err != nil {
		t.Fatal(err)
	}
	if !f.FC.Protected {
		t.Fatal("Protected bit not set")
	}
	if string(f.Body) == "secret" {
		t.Fatal("body transmitted in the clear")
	}
	plain, err := c.Decrypt(f.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != "secret" {
		t.Fatalf("decrypted %q", plain)
	}
}

func TestScoreboardReceiveAMPDUEndToEnd(t *testing.T) {
	s, _ := NewAMPDUScheduler(src, dst, bssid, 0)
	agg, start, _ := s.BuildAMPDU([][]byte{nil, nil, nil, nil})
	psdu, _ := agg.Marshal()

	// Corrupt subframe 2's MPDU bytes in flight (what a tag does).
	bounds, _ := agg.SubframeBounds()
	for i := bounds[2][0]; i < bounds[2][1]; i++ {
		psdu[i] ^= 0x5A
	}

	sb, _ := NewScoreboard(start)
	valid, err := sb.ReceiveAMPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	if valid != 3 {
		t.Fatalf("valid = %d, want 3", valid)
	}
	ba := sb.BlockAck(src, dst, 0)
	bits, _ := ba.BitmapBits(4)
	want := []byte{1, 1, 0, 1}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bitmap = %v, want %v", bits, want)
		}
	}
}

func TestReceiveAMPDUGarbage(t *testing.T) {
	sb, _ := NewScoreboard(0)
	valid, _ := sb.ReceiveAMPDU([]byte{1, 2, 3, 4, 5})
	if valid != 0 {
		t.Fatalf("garbage yielded %d valid subframes", valid)
	}
}

func TestRateControllerClimbsToCeiling(t *testing.T) {
	rc, err := NewRateController(0.95, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// Perfect channel: must climb to MCS7 and converge there.
	for i := 0; i < 300; i++ {
		if err := rc.Update(1.0); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := rc.Current()
	if m.Index != 7 {
		t.Fatalf("settled at MCS%d, want 7", m.Index)
	}
	if !rc.Converged() {
		t.Fatal("should report converged at the ceiling")
	}
}

func TestRateControllerBacksOff(t *testing.T) {
	rc, _ := NewRateController(0.95, stats.NewRNG(2))
	// Climb a bit first.
	for i := 0; i < 64; i++ {
		_ = rc.Update(1.0)
	}
	m, _ := rc.Current()
	before := m.Index
	if before == 0 {
		t.Fatal("never climbed")
	}
	// Channel collapses.
	for i := 0; i < 50; i++ {
		_ = rc.Update(0.3)
	}
	m, _ = rc.Current()
	if m.Index != 0 {
		t.Fatalf("should fall to MCS0, at MCS%d", m.Index)
	}
}

func TestRateControllerFindsIntermediateRate(t *testing.T) {
	rc, _ := NewRateController(0.95, stats.NewRNG(3))
	// MCS ≤ 3 succeed, above fails: controller must hover at 3.
	for i := 0; i < 500; i++ {
		m, _ := rc.Current()
		ratio := 1.0
		if m.Index > 3 {
			ratio = 0.5
		}
		_ = rc.Update(ratio)
	}
	m, _ := rc.Current()
	if m.Index != 3 {
		t.Fatalf("settled at MCS%d, want 3", m.Index)
	}
	if !rc.Converged() {
		t.Fatal("should be converged at MCS3")
	}
}

func TestRateControllerValidation(t *testing.T) {
	if _, err := NewRateController(0, nil); err == nil {
		t.Fatal("floor 0 accepted")
	}
	if _, err := NewRateController(1, nil); err == nil {
		t.Fatal("floor 1 accepted")
	}
	rc, _ := NewRateController(0.9, stats.NewRNG(4))
	if err := rc.Update(1.5); err == nil {
		t.Fatal("ratio > 1 accepted")
	}
	if rc.Converged() {
		t.Fatal("fresh controller cannot be converged")
	}
}

func TestContenderAccessDelay(t *testing.T) {
	c := NewContender(stats.NewRNG(5))
	d, err := c.AccessDelay(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d < dot11.DIFS {
		t.Fatalf("delay %v below DIFS", d)
	}
	maxIdle := dot11.DIFS + time.Duration(dot11.CWmin)*dot11.SlotTime
	if d > maxIdle {
		t.Fatalf("idle delay %v above DIFS+CW slots", d)
	}
	if _, err := c.AccessDelay(1.0, time.Millisecond); err == nil {
		t.Fatal("busyProb 1 accepted")
	}
}

func TestContenderBusyChannelSlower(t *testing.T) {
	idleTotal, busyTotal := time.Duration(0), time.Duration(0)
	ci := NewContender(stats.NewRNG(6))
	cb := NewContender(stats.NewRNG(6))
	for i := 0; i < 200; i++ {
		di, _ := ci.AccessDelay(0, time.Millisecond)
		db, _ := cb.AccessDelay(0.4, time.Millisecond)
		idleTotal += di
		busyTotal += db
	}
	if busyTotal <= idleTotal {
		t.Fatal("busy channel should slow access")
	}
}

func TestContenderBackoffGrowsAndResets(t *testing.T) {
	c := NewContender(stats.NewRNG(7))
	if c.CW() != dot11.CWmin {
		t.Fatal("initial CW wrong")
	}
	c.Collision()
	if c.CW() != 31 {
		t.Fatalf("CW after collision = %d, want 31", c.CW())
	}
	for i := 0; i < 10; i++ {
		c.Collision()
	}
	if c.CW() != 1023 {
		t.Fatalf("CW should cap at 1023, got %d", c.CW())
	}
	c.Success()
	if c.CW() != dot11.CWmin {
		t.Fatal("CW should reset on success")
	}
}
