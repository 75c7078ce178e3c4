package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"witag/internal/dot11"
	"witag/internal/mac"
)

// Query construction (§4, §7 "Query Packet Detection"). A query A-MPDU is
// TriggerLen trigger subframes followed by data subframes. Trigger
// payloads alternate between two known byte patterns chosen to produce
// distinct envelope amplitudes at the tag; data subframes carry dummy
// payloads.
//
// Query shaping: the tag times subframes by counting 50 kHz clock ticks,
// so the querier sizes every subframe's airtime to K whole ticks. A single
// MPDU size that lands exactly on the tick grid rarely exists (airtime
// moves in 4-on-air-byte quanta), so the builder *dithers* per-subframe
// sizes to keep each cumulative subframe boundary within 2 on-air bytes of
// the tick grid — bounded error the tag's guard interval absorbs.

// TriggerHighByte and TriggerLowByte fill trigger payloads. The envelope
// model maps the density of 1-bits to RF envelope amplitude.
const (
	TriggerHighByte = 0xFF
	TriggerLowByte  = 0x00
)

// QuerySpec parameterises a query aggregate.
type QuerySpec struct {
	TriggerLen int // trigger subframes (≥2 for an alternating pattern)
	DataLen    int // data subframes = tag bits per query
	// PayloadSizes holds the per-subframe dummy payload sizes produced by
	// ShapeForTick (length TriggerLen+DataLen). A nil slice means
	// unshaped minimal subframes (QoS null + 1-byte fill).
	PayloadSizes []int
	// TicksPerSubframe records the shaping target (0 when unshaped).
	TicksPerSubframe int
	MCS              dot11.MCS
	Width            dot11.ChannelWidth
	GI               dot11.GuardInterval
}

// Total returns the subframe count.
func (q QuerySpec) Total() int { return q.TriggerLen + q.DataLen }

// Validate checks the spec against A-MPDU limits.
func (q QuerySpec) Validate() error {
	if q.TriggerLen < 2 {
		return fmt.Errorf("core: need ≥2 trigger subframes for an alternating pattern, got %d", q.TriggerLen)
	}
	if q.DataLen < 1 {
		return fmt.Errorf("core: need ≥1 data subframe, got %d", q.DataLen)
	}
	if q.Total() > dot11.MaxSubframes {
		return fmt.Errorf("core: %d subframes exceed the %d-subframe A-MPDU limit", q.Total(), dot11.MaxSubframes)
	}
	if q.PayloadSizes != nil && len(q.PayloadSizes) != q.Total() {
		return fmt.Errorf("core: %d payload sizes for %d subframes", len(q.PayloadSizes), q.Total())
	}
	for i, size := range q.PayloadSizes {
		if size < 1 {
			return fmt.Errorf("core: subframe %d payload of %d bytes, need ≥1", i, size)
		}
	}
	return nil
}

// payloadAt returns the dummy payload size of subframe i.
func (q QuerySpec) payloadAt(i int) int {
	if q.PayloadSizes == nil {
		return 1
	}
	return q.PayloadSizes[i]
}

// onAirBytesAt returns the on-air bytes subframe i occupies: delimiter +
// MAC header + payload (+cipher overhead) + FCS, rounded up to the 4-byte
// A-MPDU grid.
func (q QuerySpec) onAirBytesAt(i, cipherOverhead int) int {
	n := dot11.DelimiterLen + dot11.QoSHeaderLen + q.payloadAt(i) + cipherOverhead + 4
	for n%4 != 0 {
		n++
	}
	return n
}

// SubframeAirtimes returns every subframe's on-air duration.
func (q QuerySpec) SubframeAirtimes(cipherOverhead int) ([]time.Duration, error) {
	return q.appendSubframeAirtimes(nil, cipherOverhead)
}

// appendSubframeAirtimes appends every subframe's on-air duration to dst.
func (q QuerySpec) appendSubframeAirtimes(dst []time.Duration, cipherOverhead int) ([]time.Duration, error) {
	dst = slices.Grow(dst, q.Total())
	for i := range q.Total() {
		d, err := dot11.SubframeAirtime(q.onAirBytesAt(i, cipherOverhead), q.MCS, q.Width, q.GI)
		if err != nil {
			return nil, err
		}
		dst = append(dst, d)
	}
	return dst, nil
}

// ShapeForTick fills PayloadSizes so each subframe lasts ticks·tick of
// airtime, dithering sizes so cumulative boundary error never exceeds two
// on-air bytes. It fails when the target is shorter than the smallest
// possible subframe.
func (q *QuerySpec) ShapeForTick(tick time.Duration, ticks, cipherOverhead int) error {
	return q.shapeForTick(nil, tick, ticks, cipherOverhead)
}

// shapeForTick is ShapeForTick writing the sizes into sizes' storage when
// it has room.
func (q *QuerySpec) shapeForTick(sizes []int, tick time.Duration, ticks, cipherOverhead int) error {
	q.PayloadSizes = nil // re-shaping replaces any previous sizing
	if err := q.Validate(); err != nil {
		return err
	}
	if tick <= 0 || ticks < 1 {
		return fmt.Errorf("core: invalid shaping target %d × %v", ticks, tick)
	}
	ndbps := q.MCS.DataBitsPerSymbol(q.Width)
	if ndbps <= 0 {
		return fmt.Errorf("core: MCS %v unusable at %d MHz", q.MCS, q.Width)
	}
	bytesPerSec := float64(ndbps) / 8 / q.GI.SymbolDuration().Seconds()
	targetBytes := float64(ticks) * tick.Seconds() * bytesPerSec
	min := q.onAirBytesAt(0, cipherOverhead) // unshaped: a 1-byte payload, the smallest
	if targetBytes < float64(min)-2 {
		return fmt.Errorf("core: %d-tick subframe (%.1f on-air bytes) below the %d-byte minimum at %v — raise ticks or lower the MCS",
			ticks, targetBytes, min, q.MCS)
	}
	sizes = slices.Grow(sizes[:0], q.Total())[:q.Total()]
	cum := 0.0
	for i := range sizes {
		want := float64(i+1)*targetBytes - cum
		n := int(math.Round(want/4)) * 4
		if n < min {
			n = min
		}
		sizes[i] = n - dot11.DelimiterLen - dot11.QoSHeaderLen - cipherOverhead - 4
		cum += float64(n)
	}
	q.PayloadSizes = sizes
	q.TicksPerSubframe = ticks
	return nil
}

// ShapeMinTicks shapes the query for the fewest ticks per subframe, up to
// 8, that fit the MPDU overhead, as ShapeForTick does for each count in
// turn, and returns the last count's error when none fits.
func (q *QuerySpec) ShapeMinTicks(tick time.Duration, cipherOverhead int) error {
	return q.shapeMinTicks(nil, tick, cipherOverhead)
}

// shapeMinTicks is ShapeMinTicks writing the sizes into sizes' storage
// when it has room.
func (q *QuerySpec) shapeMinTicks(sizes []int, tick time.Duration, cipherOverhead int) error {
	var err error
	for ticks := 1; ticks <= 8; ticks++ {
		if err = q.shapeForTick(sizes, tick, ticks, cipherOverhead); err == nil {
			return nil
		}
	}
	return err
}

// psduLen returns len(BuildQuery(...).Marshal()) without building anything,
// and refuses the specs BuildQuery refuses: each subframe is a delimiter
// plus its MPDU (QoS header, payload sealed with cipherOverhead bytes,
// FCS), padded to 4 bytes except the last.
func (q QuerySpec) psduLen(cipherOverhead int) (int, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	n := 0
	for i := 0; i < q.Total(); i++ {
		mpdu := dot11.QoSHeaderLen + q.payloadAt(i) + cipherOverhead + 4
		if mpdu > dot11.MaxMPDULen {
			return 0, fmt.Errorf("core: subframe %d MPDU of %d bytes exceeds %d", i, mpdu, dot11.MaxMPDULen)
		}
		n = (n+3)/4*4 + dot11.DelimiterLen + mpdu
	}
	return n, nil
}

// RoundAirtime returns the airtime of one query round of this spec (§4.1):
// channel access, the query PPDU, SIFS and a block ACK at baRateMbps, with
// cipherOverhead bytes sealed into every MPDU. It is arithmetic on the
// spec's shape; nothing is built.
func (q QuerySpec) RoundAirtime(cipherOverhead int, baRateMbps float64) (dot11.TXOPExchange, error) {
	n, err := q.psduLen(cipherOverhead)
	if err != nil {
		return dot11.TXOPExchange{}, err
	}
	return dot11.QueryRoundAirtime(n, q.MCS, q.Width, q.GI, baRateMbps)
}

// TagRateBps returns the spec's steady-state tag data rate: one tag bit
// per data subframe, over RoundAirtime (bit errors aside).
func (q QuerySpec) TagRateBps(cipherOverhead int, baRateMbps float64) (float64, error) {
	ex, err := q.RoundAirtime(cipherOverhead, baRateMbps)
	if err != nil {
		return 0, err
	}
	return float64(q.DataLen) / ex.Total().Seconds(), nil
}

// queryPlan is everything a round needs from its query A-MPDU. All of it
// is a pure function of the spec and the cipher overhead, so it is
// computed once per spec rather than by building and marshalling the
// aggregate every round.
type queryPlan struct {
	ok       bool
	gen      int       // counts computes, so a cache can tell a plan unchanged
	spec     QuerySpec // the spec planned for; PayloadSizes is a private copy
	overhead int

	airs     []time.Duration // per-subframe airtime, as SubframeAirtimes
	subBits  []int           // per-subframe on-air bits
	trigMean time.Duration   // mean trigger subframe airtime
	ppdu     time.Duration   // PPDU airtime of len(BuildQuery(...).Marshal())
}

// matches reports whether the plan was computed for q and overhead.
func (p *queryPlan) matches(q *QuerySpec, overhead int) bool {
	return p.ok && p.overhead == overhead &&
		p.spec.TriggerLen == q.TriggerLen && p.spec.DataLen == q.DataLen &&
		p.spec.MCS == q.MCS && p.spec.Width == q.Width && p.spec.GI == q.GI &&
		(p.spec.PayloadSizes == nil) == (q.PayloadSizes == nil) &&
		slices.Equal(p.spec.PayloadSizes, q.PayloadSizes)
}

// compute fills the plan for q and overhead, in the storage of the plan
// it replaces.
func (p *queryPlan) compute(q QuerySpec, overhead int) error {
	p.ok = false
	psduLen, err := q.psduLen(overhead) // validates q
	if err != nil {
		return err
	}
	airs, err := q.appendSubframeAirtimes(p.airs[:0], overhead)
	if err != nil {
		return err
	}
	ppdu, err := dot11.PPDUAirtime(psduLen, q.MCS, q.Width, q.GI)
	if err != nil {
		return err
	}
	var trigAir time.Duration
	for _, a := range airs[:q.TriggerLen] {
		trigAir += a
	}
	p.subBits = p.subBits[:0]
	for i := range airs {
		p.subBits = append(p.subBits, q.onAirBytesAt(i, overhead)*8)
	}
	sizes := p.spec.PayloadSizes[:0]
	p.spec, p.overhead = q, overhead
	if q.PayloadSizes != nil { // Validate refuses an empty one
		p.spec.PayloadSizes = append(sizes, q.PayloadSizes...)
	}
	p.airs, p.trigMean, p.ppdu = airs, trigAir/time.Duration(q.TriggerLen), ppdu
	p.ok = true
	p.gen++
	return nil
}

// BuildQuery constructs the query A-MPDU via the scheduler. The returned
// aggregate has Total() subframes; the caller transmits it and reads tag
// bits from BA bitmap positions [TriggerLen, Total()).
func (q QuerySpec) BuildQuery(s *mac.AMPDUScheduler) (*dot11.AMPDU, uint16, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	payloads := make([][]byte, 0, q.Total())
	for i := 0; i < q.Total(); i++ {
		fill := byte(TriggerHighByte)
		if i < q.TriggerLen && i%2 == 1 {
			fill = TriggerLowByte
		}
		p := make([]byte, q.payloadAt(i))
		for j := range p {
			p[j] = fill
		}
		payloads = append(payloads, p)
	}
	return s.BuildAMPDU(payloads)
}

// EnvelopeAmplitudeFor maps a payload fill byte to a relative RF envelope
// amplitude at the tag: the fraction of 1-bits sets OFDM subcarrier
// loading in this model (1.0 for all-ones, 0.15 for all-zero payloads,
// whose subframes are mostly header energy).
func EnvelopeAmplitudeFor(fill byte) float64 {
	ones := 0
	for i := 0; i < 8; i++ {
		ones += int(fill >> uint(i) & 1)
	}
	return 0.15 + 0.85*float64(ones)/8
}
