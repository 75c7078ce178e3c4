package channel

import (
	"fmt"
	"math"
)

// Physical constants and link-budget helpers.
const (
	// SpeedOfLight in m/s.
	SpeedOfLight = 299_792_458.0

	// DefaultFreqHz is the 2.4 GHz ISM band centre WiTAG's prototype used
	// (TL-WDN4800 in 2.4 GHz 802.11n mode).
	DefaultFreqHz = 2.437e9 // channel 6

	// SubcarrierSpacingHz of 802.11 OFDM.
	SubcarrierSpacingHz = 312_500.0

	// NoiseFloorDbm20MHz is thermal noise (-174 dBm/Hz) over 20 MHz plus a
	// 7 dB receiver noise figure.
	NoiseFloorDbm20MHz = -94.0
)

// Wavelength returns λ for a carrier frequency.
func Wavelength(freqHz float64) float64 { return SpeedOfLight / freqHz }

// FriisAmplitude returns the |h| amplitude gain of a free-space path of
// length d metres with path-loss exponent ple: λ/(4π·d^(ple/2)·d0^...),
// reducing to the classic λ/(4πd) at ple=2. Indoor LoS typically uses
// ple≈1.8–2.2, NLoS 3–4.
func FriisAmplitude(d, freqHz, ple float64) (float64, error) {
	if d <= 0 {
		return 0, fmt.Errorf("channel: non-positive distance %v", d)
	}
	if freqHz <= 0 {
		return 0, fmt.Errorf("channel: non-positive frequency %v", freqHz)
	}
	if ple <= 0 {
		return 0, fmt.Errorf("channel: non-positive path loss exponent %v", ple)
	}
	lam := Wavelength(freqHz)
	return lam / (4 * math.Pi * math.Pow(d, ple/2)), nil
}

// BackscatterAmplitude returns the amplitude gain of a two-hop reflected
// path tx→reflector→rx: the product of the two one-hop Friis amplitudes
// scaled by the reflector's effective gain (capturing RCS / antenna gain /
// reflection coefficient magnitude). Power therefore goes as
// 1/(Ds²·Dr²) — the law the paper cites (Skolnik's radar handbook) for why
// BER peaks when the tag sits mid-span.
func BackscatterAmplitude(ds, dr, freqHz, gain float64) (float64, error) {
	a1, err := FriisAmplitude(ds, freqHz, 2)
	if err != nil {
		return 0, err
	}
	a2, err := FriisAmplitude(dr, freqHz, 2)
	if err != nil {
		return 0, err
	}
	if gain < 0 {
		return 0, fmt.Errorf("channel: negative reflector gain %v", gain)
	}
	// a = (λ/4π)² · gain / (ds·dr): gain folds RCS, tag antenna gain and
	// reflection-coefficient magnitude into one dimensionless factor.
	return a1 * a2 * gain, nil
}

// DbToAmplitude converts a dB power ratio to an amplitude ratio.
func DbToAmplitude(db float64) float64 { return math.Pow(10, db/20) }

// DbmToWatts converts dBm to watts.
func DbmToWatts(dbm float64) float64 { return math.Pow(10, (dbm-30)/10) }

// SNRLinear computes the mean per-subcarrier SNR given transmit power,
// mean |h|² across subcarriers, and the noise floor.
func SNRLinear(txDbm float64, meanH2 float64, noiseDbm float64) float64 {
	return SNRFromWatts(DbmToWatts(txDbm), meanH2, DbmToWatts(noiseDbm))
}

// SNRFromWatts is SNRLinear with transmit power and noise floor already in
// watts, for callers that convert them once per world.
func SNRFromWatts(txW, meanH2, noiseW float64) float64 {
	if meanH2 <= 0 {
		return 0
	}
	return txW * meanH2 / noiseW
}
