// Package baselines models the prior WiFi-backscatter systems the paper
// compares against (§2, §7): HitchHike, FreeRider, MOXcatter, Passive
// Wi-Fi, BackFi and classic RFID. Each model captures the axes the paper's
// comparison turns on — standard compatibility, encryption, infrastructure
// modifications, channel shifting, oscillator requirements, and reported
// throughput — plus a functional HitchHike codeword-translation link built
// on the phy package's DSSS implementation.
package baselines

import (
	"fmt"
	"strings"

	"witag/internal/tag"
)

// Requirement flags for the compatibility matrix.
type SystemModel struct {
	Name     string
	Standard string // WiFi standard the tag rides on
	// Published throughput range, bits/s.
	ThroughputMinBps, ThroughputMaxBps float64
	WorksWithEncryption                bool
	NeedsAPModification                bool
	NeedsExtraReceiver                 bool // second AP / specialised reader
	ShiftsChannel                      bool // reflects onto an adjacent channel
	PerformsCarrierSense               bool
	OscillatorHz                       float64
	Oscillator                         tag.OscillatorKind
}

// Models returns the comparison set, numbers as reported in the respective
// papers and summarised in WiTAG §2/§6.2/§7.
func Models() []SystemModel {
	return []SystemModel{
		{
			Name: "RFID (EPC Gen2)", Standard: "none (dedicated reader)",
			ThroughputMinBps: 40e3, ThroughputMaxBps: 640e3,
			WorksWithEncryption: true, NeedsAPModification: false, NeedsExtraReceiver: true,
			ShiftsChannel: false, PerformsCarrierSense: false,
			OscillatorHz: 1.92e6, Oscillator: tag.RingOscillator,
		},
		{
			Name: "BackFi", Standard: "802.11g (custom full-duplex hw)",
			ThroughputMinBps: 1e6, ThroughputMaxBps: 5e6,
			WorksWithEncryption: false, NeedsAPModification: true, NeedsExtraReceiver: true,
			ShiftsChannel: false, PerformsCarrierSense: false,
			OscillatorHz: 20e6, Oscillator: tag.RingOscillator,
		},
		{
			Name: "Passive Wi-Fi", Standard: "802.11b (plugged-in helper)",
			ThroughputMinBps: 1e6, ThroughputMaxBps: 11e6,
			WorksWithEncryption: false, NeedsAPModification: true, NeedsExtraReceiver: true,
			ShiftsChannel: true, PerformsCarrierSense: false,
			OscillatorHz: 20e6, Oscillator: tag.RingOscillator,
		},
		{
			Name: "HitchHike", Standard: "802.11b",
			ThroughputMinBps: 60e3, ThroughputMaxBps: 300e3,
			WorksWithEncryption: false, NeedsAPModification: true, NeedsExtraReceiver: true,
			ShiftsChannel: true, PerformsCarrierSense: false,
			OscillatorHz: 20e6, Oscillator: tag.RingOscillator,
		},
		{
			Name: "FreeRider", Standard: "802.11g",
			ThroughputMinBps: 15e3, ThroughputMaxBps: 60e3,
			WorksWithEncryption: false, NeedsAPModification: true, NeedsExtraReceiver: true,
			ShiftsChannel: true, PerformsCarrierSense: false,
			OscillatorHz: 20e6, Oscillator: tag.RingOscillator,
		},
		{
			Name: "MOXcatter", Standard: "802.11n (spatial streams)",
			ThroughputMinBps: 1e3, ThroughputMaxBps: 50e3,
			WorksWithEncryption: false, NeedsAPModification: true, NeedsExtraReceiver: true,
			ShiftsChannel: true, PerformsCarrierSense: false,
			OscillatorHz: 20e6, Oscillator: tag.RingOscillator,
		},
		{
			Name: "WiTAG", Standard: "802.11n/ac (and ax)",
			ThroughputMinBps: 39e3, ThroughputMaxBps: 40e3,
			WorksWithEncryption: true, NeedsAPModification: false, NeedsExtraReceiver: false,
			ShiftsChannel: false, PerformsCarrierSense: false,
			OscillatorHz: 50e3, Oscillator: tag.CrystalOscillator,
		},
	}
}

// OscillatorPowerW returns the model's clock-generation power.
func (m SystemModel) OscillatorPowerW() (float64, error) {
	return tag.OscillatorPowerW(m.Oscillator, m.OscillatorHz)
}

// DeployableOnExistingNetwork reports the paper's headline criterion: no
// AP modification, no extra receiver, works under WPA.
func (m SystemModel) DeployableOnExistingNetwork() bool {
	return !m.NeedsAPModification && !m.NeedsExtraReceiver && m.WorksWithEncryption
}

// Matrix renders the §2 comparison as an aligned text table.
func Matrix() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-28s %-12s %-9s %-8s %-9s %-10s %-11s\n",
		"System", "Standard", "Rate(bps)", "Encrypt", "APmod", "ExtraRx", "ChanShift", "OscPower")
	for _, m := range Models() {
		osc, err := m.OscillatorPowerW()
		oscStr := "n/a"
		if err == nil {
			oscStr = fmt.Sprintf("%.1fµW", osc*1e6)
		}
		fmt.Fprintf(&b, "%-18s %-28s %-12s %-9v %-8v %-9v %-10v %-11s\n",
			m.Name, m.Standard,
			fmt.Sprintf("%.0fk-%.0fk", m.ThroughputMinBps/1e3, m.ThroughputMaxBps/1e3),
			m.WorksWithEncryption, m.NeedsAPModification, m.NeedsExtraReceiver,
			m.ShiftsChannel, oscStr)
	}
	return b.String()
}
