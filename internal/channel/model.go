package channel

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"

	"witag/internal/obs"
	"witag/internal/stats"
)

// Reflector is a static environment feature (furniture, cabinets, walls'
// specular faces) that contributes a multipath component.
type Reflector struct {
	Pos  Point
	Gain float64 // effective backscatter gain (dimensionless)
}

// Scatterer is a moving reflector — a person walking through the space.
// Its position random-walks between channel snapshots, producing the
// round-to-round channel variation the paper's one-minute measurements see.
type Scatterer struct {
	Pos      Point
	Gain     float64
	SpeedMps float64 // walking speed
}

// TagReflection describes the tag's instantaneous contribution to the
// channel: its position and complex reflection coefficient. The magnitude
// folds antenna gain; the phase is the switch state (0 or π for the
// quarter-wave-stub design of §5.2; magnitude 0 models open circuit).
// ExcessPathM adds electrical length to the reflected path — the group
// delay of the tag's antenna/stub/switch network plus near-field
// scattering. It gives the tag's channel delta a frequency-dependent phase
// ramp, which is what keeps pilot common-phase tracking from undoing the
// corruption (see phy.DistortionAfterCPE).
type TagReflection struct {
	Pos         Point
	Coeff       complex128
	ExcessPathM float64
}

// Environment is the full propagation model. Create with NewEnvironment,
// then place walls, reflectors and scatterers. An Environment is not safe
// for concurrent use: Advance moves its scatterers, and every channel
// evaluation reads and refreshes its static-prefix and tag-term caches.
type Environment struct {
	FreqHz         float64
	PathLossExp    float64 // direct-path exponent (2 = free space)
	TxPowerDbm     float64
	NoiseFloorDbm  float64
	NumSubcarriers int
	Walls          []Wall
	Reflectors     []Reflector
	Scatterers     []Scatterer

	// Spans, when non-nil, attributes Advance's scatterer walk to the
	// channel phase. Channel itself is not self-instrumented: callers
	// (core.System.QueryRound) wrap it in their own channel span, and
	// double-counting one evaluation would inflate attribution.
	Spans *obs.Spans

	rng *rand.Rand

	// prefix caches the static part of the last tx→rx channel: the direct
	// path plus the reflectors, summed in that order.
	prefix staticPrefix
	// tags caches the tag path's phasors for the last two reflection
	// states evaluated; nextTag is the slot the next miss overwrites.
	tags    [2]tagTerm
	nextTag int
	// loss memoises the amplitude of each wall-loss sum.
	loss lossMemo
	// rotors is the scratch the fused scatterer pass reuses every round.
	rotors []rotor
	// phasorEvals counts path × subcarrier phasor evaluations.
	phasorEvals int64
}

// lossMemo memoises DbToAmplitude for the last few wall-loss sums a path
// paid (DESIGN.md §17, stage 5). Behind Figure 6's walls nearly every path
// crosses the same walls, so a round asks for a handful of distinct sums,
// each of which would otherwise cost a math.Pow per path. An entry is keyed
// on the bits of the dB value it converted, the function's whole input, so
// no edit to the walls can make it stale.
type lossMemo struct {
	db      [8]uint64
	amp     [8]float64
	n, next int // filled entries; the slot the next miss overwrites
}

// amplitude returns DbToAmplitude(db), converting only on a miss.
func (m *lossMemo) amplitude(db float64) float64 {
	key := math.Float64bits(db)
	for i := range m.n {
		if m.db[i] == key {
			return m.amp[i]
		}
	}
	a := DbToAmplitude(db)
	m.db[m.next], m.amp[m.next] = key, a
	m.next = (m.next + 1) % len(m.db)
	m.n = min(m.n+1, len(m.db))
	return a
}

// staticPrefix is the cached direct + reflector sum of one tx→rx link,
// with a copy of every input it was computed from. The Environment's
// fields are exported, so callers may edit them between evaluations —
// Figure 6's harness retunes a wall's attenuation in place after a first
// SNR call — and the cache is validated against all of them on every use.
type staticPrefix struct {
	ok                  bool
	tx, rx              Point
	freqHz, pathLossExp float64
	walls               []Wall
	reflectors          []Reflector
	h                   []complex128
}

// matches reports whether the cached prefix is the one e would compute now
// for tx→rx.
func (p *staticPrefix) matches(e *Environment, tx, rx Point) bool {
	return p.ok && p.tx == tx && p.rx == rx &&
		p.freqHz == e.FreqHz && p.pathLossExp == e.PathLossExp &&
		len(p.h) == e.NumSubcarriers &&
		slices.Equal(p.walls, e.Walls) && slices.Equal(p.reflectors, e.Reflectors)
}

// tagTerm is the cached tag path of one reflection state: its phasor on
// every subcarrier, with a copy of every input it was computed from. It is
// validated by the same rule as staticPrefix, against the inputs the tag
// path depends on. The coefficient is compared bit for bit, because +0 and
// −0 in its imaginary part compare equal yet flip the sign of its phase.
type tagTerm struct {
	ok     bool
	tx, rx Point
	freqHz float64
	walls  []Wall
	pos    Point
	coeff  [2]uint64
	excess float64
	h      []complex128
}

// coeffBits returns c's real and imaginary parts as raw bits.
func coeffBits(c complex128) [2]uint64 {
	return [2]uint64{math.Float64bits(real(c)), math.Float64bits(imag(c))}
}

// matches reports whether the cached term is the one e would compute now
// for tag on tx→rx.
func (t *tagTerm) matches(e *Environment, tx, rx Point, tag *TagReflection) bool {
	return t.ok && t.tx == tx && t.rx == rx && t.freqHz == e.FreqHz &&
		len(t.h) == e.NumSubcarriers &&
		t.pos == tag.Pos && t.coeff == coeffBits(tag.Coeff) && t.excess == tag.ExcessPathM &&
		slices.Equal(t.walls, e.Walls)
}

// NewEnvironment returns an environment with the paper's defaults: 2.4 GHz,
// free-space LoS exponent, 15 dBm transmit power, 56 used subcarriers
// (20 MHz HT).
func NewEnvironment(seed int64) *Environment {
	return &Environment{
		FreqHz:         DefaultFreqHz,
		PathLossExp:    2.0,
		TxPowerDbm:     15,
		NoiseFloorDbm:  NoiseFloorDbm20MHz,
		NumSubcarriers: 56,
		rng:            stats.NewRNG(seed),
	}
}

// AddWall appends a wall segment.
func (e *Environment) AddWall(a, b Point, attenuationDb float64, material string) {
	e.Walls = append(e.Walls, Wall{A: a, B: b, AttenuationDb: attenuationDb, Material: material})
}

// AddReflector appends a static reflector.
func (e *Environment) AddReflector(p Point, gain float64) {
	e.Reflectors = append(e.Reflectors, Reflector{Pos: p, Gain: gain})
}

// AddScatterers sprinkles n moving scatterers uniformly over the rectangle
// [x0,x1]×[y0,y1].
func (e *Environment) AddScatterers(n int, x0, y0, x1, y1, gain, speedMps float64) {
	for i := 0; i < n; i++ {
		e.Scatterers = append(e.Scatterers, Scatterer{
			Pos:      Point{stats.Uniform(e.rng, x0, x1), stats.Uniform(e.rng, y0, y1)},
			Gain:     gain,
			SpeedMps: speedMps,
		})
	}
}

// RoundStepS is the scatterer motion, in seconds, every measurement and
// transfer loop advances the environment by before each query round.
const RoundStepS = 0.05

// Advance moves every scatterer through dt seconds of random walk. Calling
// it between query rounds models people moving while the channel stays
// frozen within each (few-ms) A-MPDU — the coherence-time argument of §5.
func (e *Environment) Advance(dt float64) {
	sp := e.Spans.Start()
	for i := range e.Scatterers {
		s := &e.Scatterers[i]
		theta := stats.Uniform(e.rng, 0, 2*math.Pi)
		step := s.SpeedMps * dt
		s.Pos = s.Pos.Add(step*math.Cos(theta), step*math.Sin(theta))
	}
	e.Spans.End(obs.PhaseChannel, sp)
}

// ramp returns the first-subcarrier phasor amp·e^{jθ_0} of one path and
// the rotation e^{jδ} from each subcarrier to the next, counting the path's
// n phasors as evaluated. θ_k = −2π·d/λ − 2π·f_k·d/c + extraPhase, with f_k
// the subcarrier offset from band centre; the f_k term is the delay-induced
// phase ramp across subcarriers — the frequency selectivity pilots cannot
// track. Since f_k steps by Δf, θ_k = θ_0 + k·δ with δ = −2π·Δf·d/c, so the
// whole ramp costs two Sincos calls (DESIGN.md §17, stage 2).
func (e *Environment) ramp(n int, amp, dist, extraPhase float64) (r, step complex128) {
	f0 := -float64(n-1) / 2 * SubcarrierSpacingHz
	s, c := math.Sincos(-2*math.Pi*dist/Wavelength(e.FreqHz) - 2*math.Pi*f0*dist/SpeedOfLight + extraPhase)
	ds, dc := math.Sincos(-2 * math.Pi * SubcarrierSpacingHz * dist / SpeedOfLight)
	e.phasorEvals += int64(n)
	return complex(amp*c, amp*s), complex(dc, ds)
}

// rotor is one path's phasor on the current subcarrier and its rotation to
// the next.
type rotor struct{ r, step complex128 }

// appendBounce appends the rotor of the two-hop path tx→p→rx of a
// reflector or scatterer; a point co-located with an endpoint adds none.
func (e *Environment) appendBounce(rotors []rotor, tx, rx, p Point, gain float64) ([]rotor, error) {
	ds, dr := tx.Dist(p), p.Dist(rx)
	if ds <= 0 || dr <= 0 {
		return rotors, nil // co-located with an endpoint: ignore
	}
	a, err := BackscatterAmplitude(ds, dr, e.FreqHz, gain)
	if err != nil {
		return rotors, err
	}
	a *= e.loss.amplitude(-PathAttenuationDb(e.Walls, tx, p) - PathAttenuationDb(e.Walls, p, rx))
	r, step := e.ramp(e.NumSubcarriers, a, ds+dr, 0)
	return append(rotors, rotor{r, step}), nil
}

// sumRotors adds every rotor's phasors to base, writing the sums into h
// (which may be base itself), in one pass over the subcarriers: at each
// one the rotors are added in order, then each turns to the next
// subcarrier (DESIGN.md §17, stage 5). Per subcarrier these are the same
// additions and multiplications, in the same order, as adding one path at
// a time across all of h, so the sum is bit-identical; what changes is
// that the paths' rotation chains, independent of each other, interleave
// instead of running one after another.
func sumRotors(h, base []complex128, rotors []rotor) {
	for k := range h {
		v := base[k]
		for i := range rotors {
			v += rotors[i].r
			rotors[i].r *= rotors[i].step
		}
		h[k] = v
	}
}

// addTag adds the tag's backscatter path; a nil tag or a zero coefficient
// (absent or open-circuited) adds nothing.
func (e *Environment) addTag(h []complex128, tx, rx Point, tag *TagReflection) error {
	if tag == nil || tag.Coeff == 0 {
		return nil
	}
	t, err := e.tagPhasors(tx, rx, tag)
	if err != nil {
		return err
	}
	for k := range h {
		h[k] += t[k]
	}
	return nil
}

// tagPhasors returns the tag path's phasor on every subcarrier: from the
// cache when nothing it depends on has changed, else freshly computed into
// the older of the two cached states. The tag holds still and a round
// toggles between two states, so after a trial's first round only the
// scatterers are evaluated.
func (e *Environment) tagPhasors(tx, rx Point, tag *TagReflection) ([]complex128, error) {
	for i := range e.tags {
		if t := &e.tags[i]; t.matches(e, tx, rx, tag) {
			return t.h, nil
		}
	}
	t := &e.tags[e.nextTag]
	t.ok = false
	ds, dr := tx.Dist(tag.Pos), tag.Pos.Dist(rx)
	a, err := BackscatterAmplitude(ds, dr, e.FreqHz, cmplx.Abs(tag.Coeff))
	if err != nil {
		return nil, err
	}
	a *= e.loss.amplitude(-PathAttenuationDb(e.Walls, tx, tag.Pos) - PathAttenuationDb(e.Walls, tag.Pos, rx))
	t.h = resize(t.h, e.NumSubcarriers)
	r, step := e.ramp(len(t.h), a, ds+dr+tag.ExcessPathM, cmplx.Phase(tag.Coeff))
	for k := range t.h {
		t.h[k] = r
		r *= step
	}
	t.tx, t.rx, t.freqHz = tx, rx, e.FreqHz
	t.walls = append(t.walls[:0], e.Walls...)
	t.pos, t.coeff, t.excess = tag.Pos, coeffBits(tag.Coeff), tag.ExcessPathM
	t.ok = true
	e.nextTag ^= 1
	return t.h, nil
}

// staticSum returns the direct path plus every reflector for tx→rx,
// summed in that order: from the cache when nothing it depends on has
// changed, else freshly computed into the cache.
func (e *Environment) staticSum(tx, rx Point) ([]complex128, error) {
	p := &e.prefix
	if p.matches(e, tx, rx) {
		return p.h, nil
	}
	p.ok = false
	p.h = resize(p.h, e.NumSubcarriers)
	clear(p.h)
	d := tx.Dist(rx)
	amp, err := FriisAmplitude(d, e.FreqHz, e.PathLossExp)
	if err != nil {
		return nil, err
	}
	amp *= e.loss.amplitude(-PathAttenuationDb(e.Walls, tx, rx))
	r, step := e.ramp(len(p.h), amp, d, 0)
	rotors := append(e.rotors[:0], rotor{r, step})
	for _, refl := range e.Reflectors {
		if rotors, err = e.appendBounce(rotors, tx, rx, refl.Pos, refl.Gain); err != nil {
			return nil, err
		}
	}
	e.rotors = rotors
	sumRotors(p.h, p.h, rotors)
	p.tx, p.rx, p.freqHz, p.pathLossExp = tx, rx, e.FreqHz, e.PathLossExp
	p.walls = append(p.walls[:0], e.Walls...)
	p.reflectors = append(p.reflectors[:0], e.Reflectors...)
	p.ok = true
	return p.h, nil
}

// resize returns buf with length n, reusing its storage when it has room.
func resize(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}

// untaggedSum writes the tx→rx channel without the tag — direct →
// reflectors → scatterers — into h, reusing its storage when it has room.
func (e *Environment) untaggedSum(h []complex128, tx, rx Point) ([]complex128, error) {
	if e.NumSubcarriers <= 0 {
		return nil, fmt.Errorf("channel: environment has %d subcarriers", e.NumSubcarriers)
	}
	if tx == rx {
		return nil, fmt.Errorf("channel: tx and rx are co-located at %v", tx)
	}
	base, err := e.staticSum(tx, rx)
	if err != nil {
		return nil, err
	}
	rotors := e.rotors[:0]
	for _, s := range e.Scatterers {
		if rotors, err = e.appendBounce(rotors, tx, rx, s.Pos, s.Gain); err != nil {
			return nil, err
		}
	}
	e.rotors = rotors
	h = resize(h, e.NumSubcarriers)
	sumRotors(h, base, rotors)
	return h, nil
}

// Channel returns the per-used-subcarrier complex gain from tx to rx with
// the tag in the given state (nil tag = absent or open-circuited).
func (e *Environment) Channel(tx, rx Point, tag *TagReflection) ([]complex128, error) {
	h, err := e.untaggedSum(nil, tx, rx)
	if err != nil {
		return nil, err
	}
	if err := e.addTag(h, tx, rx, tag); err != nil {
		return nil, err
	}
	return h, nil
}

// ChannelPair returns the tx→rx channel with the tag in state a and in
// state b. Both equal what Channel returns for that state, bit for bit:
// the sum direct → reflectors → scatterers is formed once and then forks,
// each copy adding its own tag term. The results are written into bufA
// and bufB when they have room (nil buffers allocate), so a caller
// evaluating one pair per round can reuse two buffers.
func (e *Environment) ChannelPair(tx, rx Point, a, b *TagReflection, bufA, bufB []complex128) (ha, hb []complex128, err error) {
	if ha, err = e.untaggedSum(bufA, tx, rx); err != nil {
		return nil, nil, err
	}
	hb = resize(bufB, len(ha))
	copy(hb, ha)
	if err := e.addTag(ha, tx, rx, a); err != nil {
		return nil, nil, err
	}
	if err := e.addTag(hb, tx, rx, b); err != nil {
		return nil, nil, err
	}
	return ha, hb, nil
}

// PhasorEvals returns how many path × subcarrier phasors this environment
// has evaluated. A static-prefix or tag-term cache hit evaluates none, so
// the count is a machine-independent measure of channel work.
func (e *Environment) PhasorEvals() int64 { return e.phasorEvals }

// MeanPower returns the mean |h|² over subcarriers.
func MeanPower(h []complex128) float64 {
	if len(h) == 0 {
		return 0
	}
	var p float64
	for _, v := range h {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	return p / float64(len(h))
}

// SNR returns the mean per-subcarrier linear SNR of the tx→rx link with the
// tag absent.
func (e *Environment) SNR(tx, rx Point) (float64, error) {
	h, err := e.Channel(tx, rx, nil)
	if err != nil {
		return 0, err
	}
	return SNRLinear(e.TxPowerDbm, MeanPower(h), e.NoiseFloorDbm), nil
}

// TagDeltaPower returns the mean per-subcarrier power of the channel change
// the tag produces when toggling between two reflection states — the |Δh|²
// from Figure 3 that §5.2 maximises.
func (e *Environment) TagDeltaPower(tx, rx Point, stateA, stateB *TagReflection) (float64, error) {
	ha, err := e.Channel(tx, rx, stateA)
	if err != nil {
		return 0, err
	}
	hb, err := e.Channel(tx, rx, stateB)
	if err != nil {
		return 0, err
	}
	delta := make([]complex128, len(ha))
	for k := range ha {
		delta[k] = ha[k] - hb[k]
	}
	return MeanPower(delta), nil
}
