package phy

import (
	"math"
	"math/cmplx"
	"testing"

	"witag/internal/dot11"
	"witag/internal/stats"
)

func allMods() []dot11.Modulation {
	return []dot11.Modulation{dot11.BPSK, dot11.QPSK, dot11.QAM16, dot11.QAM64, dot11.QAM256}
}

func TestMapperUnknownModulation(t *testing.T) {
	if _, err := NewMapper(dot11.Modulation(99)); err == nil {
		t.Fatal("unknown modulation accepted")
	}
}

func TestMapDemapRoundTripAllModulations(t *testing.T) {
	for _, mod := range allMods() {
		m, err := NewMapper(mod)
		if err != nil {
			t.Fatal(err)
		}
		bps := m.BitsPerPoint()
		for v := 0; v < 1<<bps; v++ {
			bits := make([]byte, bps)
			for i := range bits {
				bits[i] = byte(v >> uint(bps-1-i) & 1)
			}
			pt, err := m.Map(bits)
			if err != nil {
				t.Fatal(err)
			}
			got := m.HardDemap(pt)
			for i := range bits {
				if got[i] != bits[i] {
					t.Fatalf("%v value %b: demap %v != %v", mod, v, got, bits)
				}
			}
		}
	}
}

func TestMapWrongBitCount(t *testing.T) {
	m, _ := NewMapper(dot11.QAM16)
	if _, err := m.Map([]byte{1, 0}); err == nil {
		t.Fatal("wrong bit count accepted")
	}
}

func TestConstellationUnitEnergy(t *testing.T) {
	for _, mod := range allMods() {
		m, _ := NewMapper(mod)
		bps := m.BitsPerPoint()
		var sum float64
		n := 1 << bps
		for v := 0; v < n; v++ {
			bits := make([]byte, bps)
			for i := range bits {
				bits[i] = byte(v >> uint(bps-1-i) & 1)
			}
			pt, _ := m.Map(bits)
			sum += real(pt)*real(pt) + imag(pt)*imag(pt)
		}
		if avg := sum / float64(n); math.Abs(avg-1) > 1e-9 {
			t.Fatalf("%v: average energy %v, want 1", mod, avg)
		}
	}
}

func TestGrayPropertyNeighboursDifferByOneBit(t *testing.T) {
	// For Gray-coded PAM, adjacent amplitude levels differ in exactly one
	// bit — the property that keeps BER low near decision boundaries.
	m, _ := NewMapper(dot11.QAM64)
	type lv struct {
		amp float64
		g   int
	}
	levels := make([]lv, 0, len(m.levels))
	for g, amp := range m.levels {
		levels = append(levels, lv{amp, g})
	}
	for i := range levels {
		for j := range levels {
			if levels[j].amp == levels[i].amp+2 {
				diff := levels[i].g ^ levels[j].g
				if popcount(diff) != 1 {
					t.Fatalf("levels %v and %v differ in %d bits", levels[i].amp, levels[j].amp, popcount(diff))
				}
			}
		}
	}
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		n += x & 1
		x >>= 1
	}
	return n
}

func TestHardDemapNearestNeighbour(t *testing.T) {
	m, _ := NewMapper(dot11.QAM16)
	// A point close to (3+3j)/sqrt(10) must demap to that corner.
	target := complex(3/math.Sqrt(10)+0.05, 3/math.Sqrt(10)-0.03)
	bits := m.HardDemap(target)
	pt, _ := m.Map(bits)
	if cmplx.Abs(pt-complex(3/math.Sqrt(10), 3/math.Sqrt(10))) > 1e-9 {
		t.Fatalf("demapped to %v", pt)
	}
}

func TestSoftDemapSigns(t *testing.T) {
	for _, mod := range allMods() {
		m, _ := NewMapper(mod)
		bps := m.BitsPerPoint()
		for v := 0; v < 1<<bps; v++ {
			bits := make([]byte, bps)
			for i := range bits {
				bits[i] = byte(v >> uint(bps-1-i) & 1)
			}
			pt, _ := m.Map(bits)
			llrs := m.SoftDemap(pt, 0.1)
			for i, l := range llrs {
				if bits[i] == 0 && l <= 0 {
					t.Fatalf("%v: LLR sign wrong for bit 0 (got %v)", mod, l)
				}
				if bits[i] == 1 && l >= 0 {
					t.Fatalf("%v: LLR sign wrong for bit 1 (got %v)", mod, l)
				}
			}
		}
	}
}

func TestSoftDemapConfidenceScalesWithNoise(t *testing.T) {
	m, _ := NewMapper(dot11.QPSK)
	pt, _ := m.Map([]byte{0, 0})
	lowNoise := m.SoftDemap(pt, 0.01)
	highNoise := m.SoftDemap(pt, 1.0)
	if math.Abs(lowNoise[0]) <= math.Abs(highNoise[0]) {
		t.Fatal("LLR confidence should grow as noise shrinks")
	}
	// Zero/negative noise variance must not panic.
	_ = m.SoftDemap(pt, 0)
}

func TestEVM(t *testing.T) {
	ref := []complex128{1, -1, complex(0, 1)}
	if v, err := EVM(ref, ref); err != nil || v != 0 {
		t.Fatalf("EVM of identical vectors = %v, %v", v, err)
	}
	rx := []complex128{1.1, -1, complex(0, 1)}
	v, err := EVM(rx, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(0.01 / 3)
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("EVM = %v, want %v", v, want)
	}
	if _, err := EVM(rx, ref[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := EVM([]complex128{1}, []complex128{0}); err == nil {
		t.Fatal("zero reference power accepted")
	}
	if v, err := EVM(nil, nil); err != nil || v != 0 {
		t.Fatal("empty EVM should be 0")
	}
}

// rotate returns the point rotated by theta radians: the phase-flip
// reflection the tests build channels from.
func rotate(pt complex128, theta float64) complex128 {
	return pt * cmplx.Exp(complex(0, theta))
}

func TestRotate(t *testing.T) {
	got := rotate(1, math.Pi)
	if cmplx.Abs(got-(-1)) > 1e-12 {
		t.Fatalf("rotate(1, π) = %v", got)
	}
	got = rotate(complex(0, 1), math.Pi/2)
	if cmplx.Abs(got-(-1)) > 1e-12 {
		t.Fatalf("rotate(j, π/2) = %v", got)
	}
}

func TestDemapDegradesGracefullyWithNoise(t *testing.T) {
	// At moderate noise, 64-QAM hard demap errors should be non-zero but
	// well below 50%.
	m, _ := NewMapper(dot11.QAM64)
	rng := stats.NewRNG(12)
	errs, total := 0, 0
	for trial := 0; trial < 2000; trial++ {
		bits := stats.RandomBits(rng, 6)
		pt, _ := m.Map(bits)
		noisy := pt + complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
		got := m.HardDemap(noisy)
		for i := range bits {
			if got[i] != bits[i] {
				errs++
			}
			total++
		}
	}
	ber := float64(errs) / float64(total)
	if ber == 0 {
		t.Fatal("expected some errors at this noise level")
	}
	if ber > 0.2 {
		t.Fatalf("BER %v implausibly high", ber)
	}
}
