package dot11

import "fmt"

// Modulation identifies a constellation used by an MCS.
type Modulation byte

const (
	BPSK Modulation = iota
	QPSK
	QAM16
	QAM64
	QAM256 // 802.11ac (VHT) only
)

// String names the modulation.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	case QAM256:
		return "256-QAM"
	default:
		return fmt.Sprintf("Modulation(%d)", byte(m))
	}
}

// BitsPerSymbol returns the coded bits carried per subcarrier (N_BPSCS).
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	case QAM256:
		return 8
	default:
		return 0
	}
}

// CodeRate is a convolutional code rate expressed as a fraction.
type CodeRate struct{ Num, Den int }

// Common 802.11 code rates.
var (
	Rate12 = CodeRate{1, 2}
	Rate23 = CodeRate{2, 3}
	Rate34 = CodeRate{3, 4}
	Rate56 = CodeRate{5, 6}
)

// String renders the rate as "num/den".
func (r CodeRate) String() string { return fmt.Sprintf("%d/%d", r.Num, r.Den) }

// ChannelWidth in MHz.
type ChannelWidth int

const (
	Width20 ChannelWidth = 20
	Width40 ChannelWidth = 40
	Width80 ChannelWidth = 80 // 802.11ac
)

// DataSubcarriers returns N_SD, the number of data subcarriers per OFDM
// symbol for HT/VHT PPDUs at this width.
func (w ChannelWidth) DataSubcarriers() int {
	switch w {
	case Width20:
		return 52
	case Width40:
		return 108
	case Width80:
		return 234
	default:
		return 0
	}
}

// PilotSubcarriers returns N_SP at this width.
func (w ChannelWidth) PilotSubcarriers() int {
	switch w {
	case Width20:
		return 4
	case Width40:
		return 6
	case Width80:
		return 8
	default:
		return 0
	}
}

// MCS describes one HT/VHT modulation and coding scheme.
type MCS struct {
	Index      int
	Modulation Modulation
	CodeRate   CodeRate
	Streams    int // N_SS spatial streams
}

// htMCSBase is the per-stream MCS ladder; HT MCS i for N streams is
// htMCSBase[i%8] with Streams = i/8 + 1.
var htMCSBase = []struct {
	mod  Modulation
	rate CodeRate
}{
	{BPSK, Rate12},
	{QPSK, Rate12},
	{QPSK, Rate34},
	{QAM16, Rate12},
	{QAM16, Rate34},
	{QAM64, Rate23},
	{QAM64, Rate34},
	{QAM64, Rate56},
}

// HTMCS returns the HT MCS with the given index (0–31, covering 1–4
// spatial streams).
func HTMCS(index int) (MCS, error) {
	if index < 0 || index > 31 {
		return MCS{}, fmt.Errorf("dot11: HT MCS index %d out of range [0,31]", index)
	}
	base := htMCSBase[index%8]
	return MCS{
		Index:      index,
		Modulation: base.mod,
		CodeRate:   base.rate,
		Streams:    index/8 + 1,
	}, nil
}

// DataBitsPerSymbol returns N_DBPS, the number of data bits per OFDM symbol
// at the given channel width.
func (m MCS) DataBitsPerSymbol(w ChannelWidth) int {
	coded := w.DataSubcarriers() * m.Modulation.BitsPerSymbol() * m.Streams
	return coded * m.CodeRate.Num / m.CodeRate.Den
}

// CodedBitsPerSymbol returns N_CBPS at the given channel width.
func (m MCS) CodedBitsPerSymbol(w ChannelWidth) int {
	return w.DataSubcarriers() * m.Modulation.BitsPerSymbol() * m.Streams
}

// String renders the MCS in the conventional "MCS7 64-QAM 5/6 1ss" form.
func (m MCS) String() string {
	return fmt.Sprintf("MCS%d %v %v %dss", m.Index, m.Modulation, m.CodeRate, m.Streams)
}
