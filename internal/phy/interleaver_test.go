package phy

import (
	"bytes"
	"testing"
	"testing/quick"

	"witag/internal/dot11"
	"witag/internal/stats"
)

func TestInterleaverIsPermutation(t *testing.T) {
	// Every (modulation, width) pair used by HT single-stream.
	for _, mod := range []dot11.Modulation{dot11.BPSK, dot11.QPSK, dot11.QAM16, dot11.QAM64, dot11.QAM256} {
		for _, w := range []dot11.ChannelWidth{dot11.Width20, dot11.Width40} {
			ncbps := w.DataSubcarriers() * mod.BitsPerSymbol()
			il, err := NewInterleaver(ncbps, mod.BitsPerSymbol(), interleaverColumns(w))
			if err != nil {
				t.Fatalf("%v/%d: %v", mod, w, err)
			}
			seen := make([]bool, ncbps)
			for k := 0; k < ncbps; k++ {
				j := il.perm[k]
				if j < 0 || j >= ncbps || seen[j] {
					t.Fatalf("%v/%d: perm not a bijection at %d", mod, w, k)
				}
				seen[j] = true
			}
		}
	}
}

func TestInterleaveRoundTripProperty(t *testing.T) {
	il, err := NewInterleaver(104, 2, 13) // QPSK HT20
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []byte) bool {
		bits := make([]byte, 104)
		for i := range bits {
			if i < len(raw) {
				bits[i] = raw[i] & 1
			}
		}
		inter, err := il.Interleave(bits)
		if err != nil {
			return false
		}
		back, err := il.Deinterleave(inter)
		if err != nil {
			return false
		}
		return bytes.Equal(back, bits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaverSpreadsAdjacentBits(t *testing.T) {
	// Adjacent coded bits must not land on the same subcarrier: positions
	// that differ by less than nbpsc would put them on one subcarrier.
	il, _ := NewInterleaver(312, 6, 13) // 64-QAM HT20
	for k := 0; k+1 < 312; k++ {
		a, b := il.perm[k], il.perm[k+1]
		if a/6 == b/6 {
			t.Fatalf("coded bits %d,%d mapped to the same subcarrier", k, k+1)
		}
	}
}

func TestInterleaverValidation(t *testing.T) {
	if _, err := NewInterleaver(0, 1, 13); err == nil {
		t.Fatal("zero ncbps accepted")
	}
	if _, err := NewInterleaver(100, 2, 13); err == nil {
		t.Fatal("non-divisible column count accepted")
	}
	il, _ := NewInterleaver(52, 1, 13)
	if _, err := il.Interleave(make([]byte, 51)); err == nil {
		t.Fatal("wrong block size accepted")
	}
	if _, err := il.Deinterleave(make([]byte, 51)); err == nil {
		t.Fatal("wrong block size accepted")
	}
	if _, err := il.DeinterleaveSoft(make([]float64, 51)); err == nil {
		t.Fatal("wrong soft block size accepted")
	}
	if il.ncbps != 52 {
		t.Fatal("block size wrong")
	}
}

func TestDeinterleaveSoftMatchesHard(t *testing.T) {
	il, _ := NewInterleaver(104, 2, 13)
	rng := stats.NewRNG(9)
	bits := stats.RandomBits(rng, 104)
	soft := make([]float64, 104)
	for i, b := range bits {
		if b == 0 {
			soft[i] = 1
		} else {
			soft[i] = -1
		}
	}
	hardOut, _ := il.Deinterleave(bits)
	softOut, _ := il.DeinterleaveSoft(soft)
	for i := range hardOut {
		want := 1.0
		if hardOut[i] == 1 {
			want = -1
		}
		if softOut[i] != want {
			t.Fatalf("soft/hard deinterleave disagree at %d", i)
		}
	}
}
