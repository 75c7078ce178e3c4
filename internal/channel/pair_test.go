package channel

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"
	"slices"
	"testing"

	"witag/internal/stats"
)

// referenceChannel is the straightforward single-state evaluation: every
// path summed direct → reflectors → scatterers → tag, each phasor as
// amp·cmplx.Exp(jθ_k) with θ_k evaluated afresh on every subcarrier by
// exactPhase. It also returns Σ|amp| over the paths it summed, the scale of
// the tolerance the rotation ramp is held to (DESIGN.md §17, stage 2).
func referenceChannel(e *Environment, tx, rx Point, tag *TagReflection) (h []complex128, ampSum float64) {
	h = make([]complex128, e.NumSubcarriers)
	lam := Wavelength(e.FreqHz)
	add := func(amp, dist, extraPhase float64) {
		ampSum += amp
		for k := range h {
			fk := (float64(k) - float64(e.NumSubcarriers-1)/2) * SubcarrierSpacingHz
			h[k] += complex(amp, 0) * cmplx.Exp(complex(0, exactPhase(dist, lam, fk, extraPhase)))
		}
	}
	d := tx.Dist(rx)
	amp, _ := FriisAmplitude(d, e.FreqHz, e.PathLossExp)
	add(amp*DbToAmplitude(-PathAttenuationDb(e.Walls, tx, rx)), d, 0)
	bounce := func(p Point, gain float64) {
		ds, dr := tx.Dist(p), p.Dist(rx)
		if ds <= 0 || dr <= 0 {
			return
		}
		a, _ := BackscatterAmplitude(ds, dr, e.FreqHz, gain)
		add(a*DbToAmplitude(-PathAttenuationDb(e.Walls, tx, p)-PathAttenuationDb(e.Walls, p, rx)), ds+dr, 0)
	}
	for _, r := range e.Reflectors {
		bounce(r.Pos, r.Gain)
	}
	for _, s := range e.Scatterers {
		bounce(s.Pos, s.Gain)
	}
	if tag != nil && tag.Coeff != 0 {
		ds, dr := tx.Dist(tag.Pos), tag.Pos.Dist(rx)
		a, _ := BackscatterAmplitude(ds, dr, e.FreqHz, cmplx.Abs(tag.Coeff))
		a *= DbToAmplitude(-PathAttenuationDb(e.Walls, tx, tag.Pos) - PathAttenuationDb(e.Walls, tag.Pos, rx))
		add(a, ds+dr+tag.ExcessPathM, cmplx.Phase(tag.Coeff))
	}
	return h, ampSum
}

// bigPi is π to well beyond exactPhase's working precision.
var bigPi, _, _ = big.ParseFloat("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803482534211706798", 10, 320, big.ToNearestEven)

// exactPhase returns θ = −2π·dist/λ − 2π·fk·dist/c + extraPhase from the
// given float64 inputs, computed and reduced to [0, 2π) in 320-bit
// arithmetic, so its only rounding is the final float64 of a phase below
// 2π. Evaluating θ in float64 instead rounds it at |θ| ≈ 2π·dist/λ, which
// at 5.18 GHz and 100 m is ≈1e4 rad with an ulp of 1.8e-12: that oracle
// would itself stray from the true phasor by more than the tolerance.
func exactPhase(dist, lam, fk, extraPhase float64) float64 {
	f := func(x float64) *big.Float { return new(big.Float).SetPrec(320).SetFloat64(x) }
	twoPi := f(2).Mul(f(2), bigPi)
	th := f(0).Mul(twoPi, f(dist))
	th.Quo(th, f(lam))
	ramp := f(0).Mul(twoPi, f(fk))
	ramp.Mul(ramp, f(dist))
	ramp.Quo(ramp, f(SpeedOfLight))
	th.Neg(th).Sub(th, ramp).Add(th, f(extraPhase))
	turns := f(0).Quo(th, twoPi)
	whole, _ := turns.Int(nil)
	if turns.Sign() < 0 {
		whole.Sub(whole, big.NewInt(1))
	}
	th.Sub(th, f(0).Mul(twoPi, f(0).SetInt(whole)))
	r, _ := th.Float64()
	return r
}

// rampTol is the rotation ramp's tolerance against referenceChannel, per
// unit of Σ|amp|.
const rampTol = 1e-12

// nearReference fails unless got is within rampTol·Σ|amp| of
// referenceChannel on every subcarrier, and returns the worst |Δh_k| in
// those units.
func nearReference(t *testing.T, what string, got []complex128, e *Environment, tx, rx Point, tag *TagReflection) float64 {
	t.Helper()
	want, ampSum := referenceChannel(e, tx, rx, tag)
	if len(got) != len(want) {
		t.Fatalf("%s: %d subcarriers, want %d", what, len(got), len(want))
	}
	worst := 0.0
	for k := range got {
		if d := cmplx.Abs(got[k]-want[k]) / ampSum; d > worst {
			worst = d
			if d > rampTol {
				t.Fatalf("%s: subcarrier %d = %v, reference %v: |Δ| = %g·Σ|amp|, tolerance %g", what, k, got[k], want[k], d, rampTol)
			}
		}
	}
	return worst
}

// sameBits fails unless got and want are bit-identical, subcarrier by
// subcarrier.
func sameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d subcarriers, want %d", what, len(got), len(want))
	}
	for k := range got {
		if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
			math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
			t.Fatalf("%s: subcarrier %d = %v, want %v (Δ=%g)", what, k, got[k], want[k], cmplx.Abs(got[k]-want[k]))
		}
	}
}

// nlosEnv is a two-wall NLoS office with reflectors and walking people.
func nlosEnv(seed int64) *Environment {
	e := NewEnvironment(seed)
	e.AddWall(Point{3.5, -6}, Point{3.5, 6}, 7, "wooden wall")
	e.AddWall(Point{9, -6}, Point{9, 6}, 12, "concrete wall")
	e.AddReflector(Point{2, 2.5}, 55)
	e.AddReflector(Point{11, -3}, 70)
	e.AddScatterers(6, 0, -4, 17, 4, 22, 1.2)
	return e
}

// fresh returns an environment with e's current geometry and empty caches.
func fresh(e *Environment) *Environment {
	f := NewEnvironment(0)
	f.FreqHz, f.PathLossExp = e.FreqHz, e.PathLossExp
	f.TxPowerDbm, f.NoiseFloorDbm = e.TxPowerDbm, e.NoiseFloorDbm
	f.NumSubcarriers = e.NumSubcarriers
	f.Walls = slices.Clone(e.Walls)
	f.Reflectors = slices.Clone(e.Reflectors)
	f.Scatterers = slices.Clone(e.Scatterers)
	return f
}

// cold returns tag's tx→rx channel from a fresh copy of e: a single-state
// evaluation no cache has touched, which a warm e must reproduce bit for bit.
func cold(t *testing.T, e *Environment, tx, rx Point, tag *TagReflection) []complex128 {
	t.Helper()
	h, err := fresh(e).Channel(tx, rx, tag)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestChannelPairMatchesChannel(t *testing.T) {
	tx, rx := Point{0, 0}, Point{17, 0}
	excess := 7.5
	rest := &TagReflection{Pos: Point{1, 0.3}, Coeff: 40, ExcessPathM: excess}
	flip := &TagReflection{Pos: Point{1, 0.3}, Coeff: -40, ExcessPathM: excess}
	open := &TagReflection{Pos: Point{1, 0.3}, Coeff: 0, ExcessPathM: excess}
	behindWall := &TagReflection{Pos: Point{5, -1}, Coeff: complex(0, 30), ExcessPathM: excess}
	cases := []struct {
		name string
		a, b *TagReflection
	}{
		{"phase flip", rest, flip},
		{"nil tag", nil, flip},
		{"open circuit", rest, open},
		{"both absent", nil, open},
		{"tag behind a wall", behindWall, rest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := nlosEnv(3)
			var bufA, bufB []complex128
			for round := 0; round < 4; round++ {
				e.Advance(0.05)
				ha, hb, err := e.ChannelPair(tx, rx, c.a, c.b, bufA, bufB)
				if err != nil {
					t.Fatal(err)
				}
				nearReference(t, "pair a vs reference", ha, e, tx, rx, c.a)
				nearReference(t, "pair b vs reference", hb, e, tx, rx, c.b)
				ca, err := e.Channel(tx, rx, c.a)
				if err != nil {
					t.Fatal(err)
				}
				cb, err := e.Channel(tx, rx, c.b)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "pair a vs Channel", ha, ca)
				sameBits(t, "pair b vs Channel", hb, cb)
				sameBits(t, "warm pair a vs cold", ha, cold(t, e, tx, rx, c.a))
				sameBits(t, "warm pair b vs cold", hb, cold(t, e, tx, rx, c.b))
				if round > 0 && (&ha[0] != &bufA[0] || &hb[0] != &bufB[0]) {
					t.Fatal("ChannelPair did not reuse roomy buffers")
				}
				bufA, bufB = ha, hb
			}
		})
	}
}

func TestChannelPairLoSMatchesReference(t *testing.T) {
	e := NewEnvironment(9)
	e.AddReflector(Point{4, 3.5}, 60)
	e.AddReflector(Point{4, -3.5}, 60)
	e.AddReflector(Point{0, 0}, 40) // co-located with tx: ignored
	e.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
	tx, rx := Point{0, 0}, Point{8, 0}
	a := &TagReflection{Pos: Point{2, 0.3}, Coeff: 68, ExcessPathM: 7.5}
	b := &TagReflection{Pos: Point{2, 0.3}, Coeff: -68, ExcessPathM: 7.5}
	ha, hb, err := e.ChannelPair(tx, rx, a, b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	nearReference(t, "rest", ha, e, tx, rx, a)
	nearReference(t, "flip", hb, e, tx, rx, b)
}

// TestRotationRampWithinTolerance holds the two-Sincos phase ramp to the
// per-subcarrier cmplx.Exp oracle across both bands, both HT subcarrier
// counts and path lengths from half a metre to 100 m, where θ reaches
// ≈2π·100/λ and its own rounding dominates the recurrence's k·ulp drift.
func TestRotationRampWithinTolerance(t *testing.T) {
	worst := 0.0
	for _, freq := range []float64{DefaultFreqHz, 5.18e9} {
		for _, n := range []int{56, 52} {
			// A lone 100 m path, so Σ|amp| is that path's own amplitude.
			bare := NewEnvironment(1)
			bare.FreqHz, bare.NumSubcarriers = freq, n
			far := Point{100, 0}
			h, err := bare.Channel(Point{0, 0}, far, nil)
			if err != nil {
				t.Fatal(err)
			}
			worst = max(worst, nearReference(t, "lone 100 m path", h, bare, Point{0, 0}, far, nil))
			for _, d := range []float64{0.5, 3, 17, 45, 80, 92} {
				e := NewEnvironment(int64(n))
				e.FreqHz, e.NumSubcarriers = freq, n
				e.AddWall(Point{d / 2, -60}, Point{d / 2, 60}, 6, "wall")
				e.AddReflector(Point{d / 3, 1.5}, 55)
				e.AddReflector(Point{d / 2, -math.Sqrt(99.5*99.5-d*d) / 2}, 70) // a 99.5 m bounce
				e.AddScatterers(3, 0, -2, d, 2, 20, 1.0)
				tx, rx := Point{0, 0}, Point{d, 0}
				rest := &TagReflection{Pos: Point{0.3, 0.2}, Coeff: 40, ExcessPathM: 7.5}
				flip := &TagReflection{Pos: Point{0.3, 0.2}, Coeff: cmplx.Rect(40, 2.9), ExcessPathM: 7.5}
				for round := 0; round < 3; round++ {
					e.Advance(0.05)
					ha, hb, err := e.ChannelPair(tx, rx, rest, flip, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					worst = max(worst,
						nearReference(t, "rest", ha, e, tx, rx, rest),
						nearReference(t, "flip", hb, e, tx, rx, flip))
				}
			}
		}
	}
	t.Logf("worst |Δh_k| = %.3g·Σ|amp| (tolerance %g)", worst, rampTol)
}

func TestChannelPairErrors(t *testing.T) {
	e := NewEnvironment(1)
	if _, _, err := e.ChannelPair(Point{1, 1}, Point{1, 1}, nil, nil, nil, nil); err == nil {
		t.Fatal("co-located endpoints accepted")
	}
	e.NumSubcarriers = 0
	if _, _, err := e.ChannelPair(Point{0, 0}, Point{8, 0}, nil, nil, nil, nil); err == nil {
		t.Fatal("zero subcarriers accepted")
	}
}

// TestPrefixCacheInvalidation edits every input of the cached static
// prefix after a first evaluation — in place, the way Figure 6's harness
// retunes a wall after its SNR call — and expects the next evaluation to
// equal a freshly built environment's, bit for bit.
func TestPrefixCacheInvalidation(t *testing.T) {
	tx, rx := Point{0, 0}, Point{17, 0}
	tag := &TagReflection{Pos: Point{1, 0.3}, Coeff: 40, ExcessPathM: 7.5}
	edits := []struct {
		name string
		edit func(e *Environment, tx, rx *Point)
	}{
		{"wall attenuation", func(e *Environment, _, _ *Point) { e.Walls[0].AttenuationDb += 1.3 }},
		{"wall moved aside", func(e *Environment, _, _ *Point) { e.Walls[1].A = Point{9, 5} }},
		{"wall added", func(e *Environment, _, _ *Point) { e.AddWall(Point{13, -6}, Point{13, 6}, 10, "cabinets") }},
		{"reflector gain", func(e *Environment, _, _ *Point) { e.Reflectors[1].Gain *= 2 }},
		{"reflector moved", func(e *Environment, _, _ *Point) { e.Reflectors[0].Pos.Y -= 1 }},
		{"reflector added", func(e *Environment, _, _ *Point) { e.AddReflector(Point{15, 3}, 70) }},
		{"tx moved", func(_ *Environment, tx, _ *Point) { tx.X += 0.25 }},
		{"rx moved", func(_ *Environment, _, rx *Point) { rx.Y += 0.25 }},
		{"frequency", func(e *Environment, _, _ *Point) { e.FreqHz = 5.18e9 }},
		{"path-loss exponent", func(e *Environment, _, _ *Point) { e.PathLossExp = 2.4 }},
		{"subcarrier count", func(e *Environment, _, _ *Point) { e.NumSubcarriers = 52 }},
	}
	for _, c := range edits {
		t.Run(c.name, func(t *testing.T) {
			e := nlosEnv(5)
			tx, rx := tx, rx
			before, err := e.SNR(tx, rx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Channel(tx, rx, tag); err != nil {
				t.Fatal(err)
			}
			c.edit(e, &tx, &rx)
			got, err := e.Channel(tx, rx, tag)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "after edit", got, cold(t, e, tx, rx, tag))
			after, err := e.SNR(tx, rx)
			if err != nil {
				t.Fatal(err)
			}
			if after == before {
				t.Fatalf("SNR unchanged at %v: the edit was not seen", before)
			}
		})
	}
}

// TestTagCacheInvalidation edits, between rounds and in place, every input
// the cached tag term depends on, one at a time. The next pair must equal a
// cold evaluation of each state bit for bit, and differ from what the
// unedited inputs give for the same scatterers, so the edit was visible.
func TestTagCacheInvalidation(t *testing.T) {
	type link struct{ tx, rx Point }
	edits := []struct {
		name string
		edit func(e *Environment, l *link, rest, flip *TagReflection)
	}{
		{"tag position", func(_ *Environment, _ *link, rest, flip *TagReflection) {
			rest.Pos.Y += 0.05
			flip.Pos.Y += 0.05
		}},
		{"coefficient magnitude", func(_ *Environment, _ *link, _, flip *TagReflection) { flip.Coeff *= 1.5 }},
		{"coefficient phase", func(_ *Environment, _ *link, _, flip *TagReflection) {
			flip.Coeff = cmplx.Rect(cmplx.Abs(flip.Coeff), cmplx.Phase(flip.Coeff)-0.4)
		}},
		{"coefficient signed zero", func(_ *Environment, _ *link, _, flip *TagReflection) {
			flip.Coeff = complex(real(flip.Coeff), math.Copysign(0, -1)) // phase π becomes −π
		}},
		{"excess path", func(_ *Environment, _ *link, rest, _ *TagReflection) { rest.ExcessPathM += 0.3 }},
		{"wall attenuation", func(e *Environment, _ *link, _, _ *TagReflection) { e.Walls[1].AttenuationDb -= 2 }},
		{"wall endpoints", func(e *Environment, _ *link, _, _ *TagReflection) {
			e.Walls[0].A, e.Walls[0].B = Point{3.5, 0.5}, Point{3.5, 6}
		}},
		{"tx", func(_ *Environment, l *link, _, _ *TagReflection) { l.tx.Y += 0.2 }},
		{"rx", func(_ *Environment, l *link, _, _ *TagReflection) { l.rx.X -= 0.2 }},
		{"frequency", func(e *Environment, _ *link, _, _ *TagReflection) { e.FreqHz = 5.18e9 }},
		{"subcarrier count", func(e *Environment, _ *link, _, _ *TagReflection) { e.NumSubcarriers = 52 }},
	}
	for _, c := range edits {
		t.Run(c.name, func(t *testing.T) {
			e := nlosEnv(11)
			l := link{Point{0, 0}, Point{17, 0}}
			rest := &TagReflection{Pos: Point{1, 0.3}, Coeff: 40, ExcessPathM: 7.5}
			flip := &TagReflection{Pos: Point{1, 0.3}, Coeff: -40, ExcessPathM: 7.5}
			var ha, hb []complex128
			pair := func() {
				t.Helper()
				e.Advance(0.05)
				var err error
				if ha, hb, err = e.ChannelPair(l.tx, l.rx, rest, flip, ha, hb); err != nil {
					t.Fatal(err)
				}
			}
			pair()
			pair()
			pre, preL, preRest, preFlip := fresh(e), l, *rest, *flip
			c.edit(e, &l, rest, flip)
			pair()
			wantA, wantB := cold(t, e, l.tx, l.rx, rest), cold(t, e, l.tx, l.rx, flip)
			sameBits(t, "rest after edit", ha, wantA)
			sameBits(t, "flip after edit", hb, wantB)
			pre.Scatterers = slices.Clone(e.Scatterers)
			if slices.Equal(wantA, cold(t, pre, preL.tx, preL.rx, &preRest)) &&
				slices.Equal(wantB, cold(t, pre, preL.tx, preL.rx, &preFlip)) {
				t.Fatal("the edit changed neither state's channel")
			}
		})
	}
}

// TestPhasorEvalsCountsCacheHitsAsZero pins the work counter: the first
// evaluation pays for every path, a warm pair pays only for the scatterers,
// an open-circuit tag pays nothing, and a changed tag state pays its
// subcarriers again.
func TestPhasorEvalsCountsCacheHitsAsZero(t *testing.T) {
	e := nlosEnv(7)
	tx, rx := Point{0, 0}, Point{17, 0}
	rest := &TagReflection{Pos: Point{1, 0.3}, Coeff: 40}
	flip := &TagReflection{Pos: Point{1, 0.3}, Coeff: -40}
	n := int64(e.NumSubcarriers)
	static, moving := int64(1+len(e.Reflectors)), int64(len(e.Scatterers))

	step := func(a, b *TagReflection) int64 {
		t.Helper()
		before := e.PhasorEvals()
		if _, _, err := e.ChannelPair(tx, rx, a, b, nil, nil); err != nil {
			t.Fatal(err)
		}
		return e.PhasorEvals() - before
	}
	if got, want := step(rest, flip), (static+moving+2)*n; got != want {
		t.Fatalf("cold pair evaluated %d phasors, want %d", got, want)
	}
	e.Advance(0.05)
	if got, want := step(rest, flip), moving*n; got != want {
		t.Fatalf("warm pair evaluated %d phasors, want %d", got, want)
	}
	if got, want := step(flip, rest), moving*n; got != want {
		t.Fatalf("swapped warm pair evaluated %d phasors, want %d", got, want)
	}
	if got, want := step(rest, &TagReflection{Pos: rest.Pos}), moving*n; got != want {
		t.Fatalf("open-circuit pair evaluated %d phasors, want %d", got, want)
	}
	if got, want := step(rest, &TagReflection{Pos: rest.Pos, Coeff: -30}), (moving+1)*n; got != want {
		t.Fatalf("pair with a changed tag state evaluated %d phasors, want %d", got, want)
	}
}

// addPath is the per-path oracle sumRotors replaced: one path's whole ramp
// is added across h before the next path starts.
func addPath(e *Environment, h []complex128, amp, dist float64) {
	r, step := e.ramp(len(h), amp, dist, 0)
	for k := range h {
		h[k] += r
		r *= step
	}
}

// addBounce adds the two-hop path tx→p→rx the way the channel did before
// the fused pass: one path at a time, with its wall loss converted afresh.
func addBounce(e *Environment, h []complex128, tx, rx, p Point, gain float64) error {
	ds, dr := tx.Dist(p), p.Dist(rx)
	if ds <= 0 || dr <= 0 {
		return nil
	}
	a, err := BackscatterAmplitude(ds, dr, e.FreqHz, gain)
	if err != nil {
		return err
	}
	addPath(e, h, a*DbToAmplitude(-PathAttenuationDb(e.Walls, tx, p)-PathAttenuationDb(e.Walls, p, rx)), ds+dr)
	return nil
}

// perPathChannel is the tag-free tx→rx channel summed path by path —
// direct, reflectors, scatterers — on an environment of its own.
func perPathChannel(e *Environment, tx, rx Point) ([]complex128, error) {
	h := make([]complex128, e.NumSubcarriers)
	d := tx.Dist(rx)
	amp, err := FriisAmplitude(d, e.FreqHz, e.PathLossExp)
	if err != nil {
		return nil, err
	}
	addPath(e, h, amp*DbToAmplitude(-PathAttenuationDb(e.Walls, tx, rx)), d)
	for _, r := range e.Reflectors {
		if err := addBounce(e, h, tx, rx, r.Pos, r.Gain); err != nil {
			return nil, err
		}
	}
	for _, s := range e.Scatterers {
		if err := addBounce(e, h, tx, rx, s.Pos, s.Gain); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// locationB is Figure 6's location B: three walls, three reflectors and
// six people walking between the client and an AP 17 m away.
func locationB(seed int64) *Environment {
	e := NewEnvironment(seed)
	e.AddWall(Point{3.5, -6}, Point{3.5, 6}, 7, "wooden wall")
	e.AddWall(Point{9, -6}, Point{9, 6}, 12, "concrete wall")
	e.AddWall(Point{13, -6}, Point{13, 6}, 10, "metal cabinets")
	e.AddReflector(Point{2, 2.5}, 55)
	e.AddReflector(Point{11, -3}, 70)
	e.AddReflector(Point{15, 3}, 70)
	e.AddScatterers(6, 0, -4, 17, 4, 22, 1.2)
	return e
}

// TestScatterSumMatchesPerPath holds the fused scatterer pass to the
// per-path sum it replaced, bit for bit, warm and cold, and to the same
// PhasorEvals and error returns.
func TestScatterSumMatchesPerPath(t *testing.T) {
	tx := Point{0, 0}
	cases := []struct {
		name  string
		rx    Point
		world func() *Environment
	}{
		{"LoS", Point{8, 0}, func() *Environment {
			e := NewEnvironment(9)
			e.AddReflector(Point{4, 3.5}, 60)
			e.AddReflector(Point{4, -3.5}, 60)
			e.AddReflector(Point{-1, 0}, 40)
			e.AddReflector(Point{9, 0}, 40)
			e.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
			return e
		}},
		{"fig6 location B", Point{17, 0}, func() *Environment { return locationB(4) }},
		{"scatterer on an endpoint", Point{17, 0}, func() *Environment {
			e := locationB(5)
			e.Scatterers = append(e.Scatterers, Scatterer{Pos: tx, Gain: 22}) // SpeedMps 0: stays put
			return e
		}},
		{"no scatterers", Point{17, 0}, func() *Environment {
			e := locationB(6)
			e.Scatterers = nil
			return e
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := c.world()
			for round := 0; round < 6; round++ {
				e.Advance(0.05)
				warm, err := e.Channel(tx, c.rx, nil)
				if err != nil {
					t.Fatal(err)
				}
				cold, oracle := fresh(e), fresh(e)
				h, err := cold.Channel(tx, c.rx, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := perPathChannel(oracle, tx, c.rx)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "warm vs per-path", warm, want)
				sameBits(t, "cold vs per-path", h, want)
				if got, want := cold.PhasorEvals(), oracle.PhasorEvals(); got != want {
					t.Fatalf("round %d: fused pass evaluated %d phasors, per-path %d", round, got, want)
				}
			}
		})
	}
	t.Run("negative scatterer gain", func(t *testing.T) {
		e := locationB(7)
		e.Scatterers[2].Gain = -1
		cold, oracle := fresh(e), fresh(e)
		_, err := cold.Channel(tx, Point{17, 0}, nil)
		_, want := perPathChannel(oracle, tx, Point{17, 0})
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("fused pass returned %v, per-path %v", err, want)
		}
		if got, want := cold.PhasorEvals(), oracle.PhasorEvals(); got != want {
			t.Fatalf("fused pass evaluated %d phasors before the error, per-path %d", got, want)
		}
	})
}

// TestWallLossMemoInvalidation edits a wall's attenuation in place between
// rounds — to fresh values, past the memo's capacity, and back to values
// it has seen — and expects every pair to equal a fresh environment's.
func TestWallLossMemoInvalidation(t *testing.T) {
	e := locationB(8)
	tx, rx := Point{0, 0}, Point{17, 0}
	rest := &TagReflection{Pos: Point{1, 0.3}, Coeff: 68, ExcessPathM: 7.5}
	flip := &TagReflection{Pos: Point{1, 0.3}, Coeff: -68, ExcessPathM: 7.5}
	base := e.Walls[0].AttenuationDb
	var ha, hb []complex128
	for i, jitter := range []float64{0, 1.3, -2.2, 0, 0.7, 1.3, 2.2, -0.4, -1.1, 1.9, 0.1, -2.0, 0, 1.3} {
		e.Walls[0].AttenuationDb = base + jitter
		e.Walls[2].AttenuationDb = 10 + float64(i%3)
		e.Advance(0.05)
		var err error
		if ha, hb, err = e.ChannelPair(tx, rx, rest, flip, ha, hb); err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("edit %d rest", i), ha, cold(t, e, tx, rx, rest))
		sameBits(t, fmt.Sprintf("edit %d flip", i), hb, cold(t, e, tx, rx, flip))
	}
}

// TestAdvanceSincosMatchesSinCos pins what lets Advance take one
// math.Sincos per scatterer instead of math.Cos and math.Sin: over
// Advance's angle range [0, 2π) — a dense grid, every multiple of π/4 and
// its neighbours, and the ends — Sincos returns Sin's and Cos's values bit
// for bit. A toolchain whose Sincos rounds differently fails here, before
// it can move a scatterer. Advance itself must then step every scatterer
// exactly as the two calls did.
func TestAdvanceSincosMatchesSinCos(t *testing.T) {
	const n = 1 << 20
	angles := []float64{0, math.SmallestNonzeroFloat64, math.Nextafter(2*math.Pi, 0)}
	for k := 0; k <= 8; k++ {
		a := float64(k) * math.Pi / 4
		angles = append(angles, math.Nextafter(a, 0), a, math.Nextafter(a, 8))
	}
	for i := range n {
		angles = append(angles, 2*math.Pi*float64(i)/n)
	}
	for _, a := range angles {
		if a < 0 || a >= 2*math.Pi {
			continue
		}
		s, c := math.Sincos(a)
		if math.Float64bits(s) != math.Float64bits(math.Sin(a)) || math.Float64bits(c) != math.Float64bits(math.Cos(a)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin and Cos give (%v, %v)", a, s, c, math.Sin(a), math.Cos(a))
		}
	}

	env, twin := NewEnvironment(3), NewEnvironment(3)
	for _, e := range []*Environment{env, twin} {
		e.AddScatterers(20, 0, -3, 8, 3, 15, 1.3)
	}
	for range 200 {
		env.Advance(RoundStepS)
		for i := range twin.Scatterers {
			s := &twin.Scatterers[i]
			theta := stats.Uniform(twin.rng, 0, 2*math.Pi)
			step := s.SpeedMps * RoundStepS
			s.Pos = s.Pos.Add(step*math.Cos(theta), step*math.Sin(theta))
		}
		if !slices.Equal(env.Scatterers, twin.Scatterers) {
			t.Fatal("Advance moved the scatterers other than Cos and Sin did")
		}
	}
}

// TestEnvironmentReleaseStartsCold: an environment on the caches a
// released environment emptied evaluates every round's channel pair bit
// for bit as one on fresh caches, with the same phasor count, so no
// cache of the old world answers for the new one; the released
// environment panics when advanced or evaluated.
func TestEnvironmentReleaseStartsCold(t *testing.T) {
	tx, rx := Point{0, 0}, Point{17, 0}
	rest := &TagReflection{Pos: Point{1, 0.3}, Coeff: 40, ExcessPathM: 7.5}
	flip := &TagReflection{Pos: Point{1, 0.3}, Coeff: -40, ExcessPathM: 7.5}
	pairs := func(e *Environment) (h [][]complex128, phasors int64) {
		t.Helper()
		for range 5 {
			e.Advance(RoundStepS)
			ha, hb, err := e.ChannelPair(tx, rx, rest, flip, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			h = append(h, ha, hb)
		}
		return h, e.PhasorEvals()
	}
	old := nlosEnv(3)
	pairs(old)
	dirty := old.cache
	old.Release()
	old.Release()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Advance after Release", func() { old.Advance(RoundStepS) })
	mustPanic("ChannelPair after Release", func() { old.ChannelPair(tx, rx, rest, flip, nil, nil) })

	reused, fresh := nlosEnv(3), nlosEnv(3)
	reused.cache, fresh.cache = dirty, new(envCache)
	got, gotPhasors := pairs(reused)
	want, wantPhasors := pairs(fresh)
	for i := range want {
		sameBits(t, "channel on reused caches vs fresh", got[i], want[i])
	}
	if gotPhasors != wantPhasors {
		t.Fatalf("reused caches evaluated %d phasors, fresh ones %d", gotPhasors, wantPhasors)
	}
}
