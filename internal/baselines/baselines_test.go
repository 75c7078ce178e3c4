package baselines

import (
	"strings"
	"testing"

	"witag/internal/stats"
)

func TestModelsOnlyWiTAGIsDeployable(t *testing.T) {
	deployable := []string{}
	for _, m := range Models() {
		if m.DeployableOnExistingNetwork() && m.Name != "RFID (EPC Gen2)" {
			deployable = append(deployable, m.Name)
		}
	}
	if len(deployable) != 1 || deployable[0] != "WiTAG" {
		t.Fatalf("deployable-on-existing-network = %v, want [WiTAG]", deployable)
	}
}

// interferesWithNeighbours reports whether a system emits energy on a
// second channel without carrier sensing.
func interferesWithNeighbours(m SystemModel) bool {
	return m.ShiftsChannel && !m.PerformsCarrierSense
}

func TestChannelShiftersInterfere(t *testing.T) {
	for _, m := range Models() {
		if m.ShiftsChannel && !interferesWithNeighbours(m) {
			t.Fatalf("%s shifts channel without carrier sense yet reported non-interfering", m.Name)
		}
		if m.Name == "WiTAG" && interferesWithNeighbours(m) {
			t.Fatal("WiTAG must not interfere")
		}
	}
}

func TestWiTAGOscillatorCheapest(t *testing.T) {
	var witagP float64
	minOther := 1.0
	for _, m := range Models() {
		p, err := m.OscillatorPowerW()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if m.Name == "WiTAG" {
			witagP = p
		} else if p < minOther {
			minOther = p
		}
	}
	if witagP >= minOther {
		t.Fatalf("WiTAG oscillator %v W not below all others (min %v W)", witagP, minOther)
	}
}

func TestMatrixRendersAllSystems(t *testing.T) {
	m := Matrix()
	for _, name := range []string{"WiTAG", "HitchHike", "FreeRider", "MOXcatter", "Passive Wi-Fi", "BackFi"} {
		if !strings.Contains(m, name) {
			t.Fatalf("matrix missing %s:\n%s", name, m)
		}
	}
}

func TestHitchHikeRecoverTagBits(t *testing.T) {
	rng := stats.NewRNG(1)
	link, err := NewHitchHikeLink(2.0, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	carrier := stats.RandomBits(rng, 200)
	tagBits := stats.RandomBits(rng, 150)
	got, err := link.Transmit(carrier, tagBits)
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range tagBits {
		if got[i] != tagBits[i] {
			errs++
		}
	}
	if errs > 3 {
		t.Fatalf("%d/150 tag bit errors at healthy SNR", errs)
	}
}

func TestHitchHikeFailsUnderEncryption(t *testing.T) {
	link, _ := NewHitchHikeLink(2, 2, stats.NewRNG(2))
	link.EncryptionEnabled = true
	if _, err := link.Transmit(make([]byte, 10), make([]byte, 5)); err == nil {
		t.Fatal("HitchHike should refuse encrypted networks")
	}
}

func TestHitchHikeValidation(t *testing.T) {
	if _, err := NewHitchHikeLink(-1, 1, nil); err == nil {
		t.Fatal("negative SNR accepted")
	}
	link, _ := NewHitchHikeLink(2, 2, stats.NewRNG(3))
	if _, err := link.Transmit(make([]byte, 5), make([]byte, 10)); err == nil {
		t.Fatal("more tag bits than carrier symbols accepted")
	}
}

func TestHitchHikeDegradesAtLowShiftedSNR(t *testing.T) {
	rng := stats.NewRNG(4)
	carrier := stats.RandomBits(rng, 400)
	tagBits := stats.RandomBits(rng, 300)
	good, _ := NewHitchHikeLink(2.0, 1.0, stats.NewRNG(5))
	bad, _ := NewHitchHikeLink(2.0, 0.02, stats.NewRNG(5))
	gGood, err := good.Transmit(carrier, tagBits)
	if err != nil {
		t.Fatal(err)
	}
	gBad, err := bad.Transmit(carrier, tagBits)
	if err != nil {
		t.Fatal(err)
	}
	eGood, eBad := 0, 0
	for i := range tagBits {
		if gGood[i] != tagBits[i] {
			eGood++
		}
		if gBad[i] != tagBits[i] {
			eBad++
		}
	}
	if eBad <= eGood {
		t.Fatalf("weak shifted link (%d errors) should do worse than strong (%d)", eBad, eGood)
	}
}
