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
	if start != 0 || s.nextSeq != 3 {
		t.Fatalf("sequence accounting wrong: start=%d next=%d", start, s.nextSeq)
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
	if start != 4095 || s.nextSeq != 1 {
		t.Fatalf("wrap: start=%d next=%d", start, s.nextSeq)
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
