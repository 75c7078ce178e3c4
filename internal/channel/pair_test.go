package channel

import (
	"math"
	"math/cmplx"
	"testing"
)

// referenceChannel is the straightforward single-state evaluation the
// paired, prefix-cached path must reproduce bit for bit: every path summed
// direct → reflectors → scatterers → tag, each phasor as amp·cmplx.Exp(jθ).
func referenceChannel(e *Environment, tx, rx Point, tag *TagReflection) []complex128 {
	h := make([]complex128, e.NumSubcarriers)
	lam := Wavelength(e.FreqHz)
	add := func(amp, dist, extraPhase float64) {
		for k := range h {
			fk := (float64(k) - float64(e.NumSubcarriers-1)/2) * SubcarrierSpacingHz
			theta := -2*math.Pi*dist/lam - 2*math.Pi*fk*dist/SpeedOfLight + extraPhase
			h[k] += complex(amp, 0) * cmplx.Exp(complex(0, theta))
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
	return h
}

// sameBits fails unless got and want are bit-identical, subcarrier by
// subcarrier.
func sameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d subcarriers, want %d", what, len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
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
				sameBits(t, "pair a vs reference", ha, referenceChannel(e, tx, rx, c.a))
				sameBits(t, "pair b vs reference", hb, referenceChannel(e, tx, rx, c.b))
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
	sameBits(t, "rest", ha, referenceChannel(e, tx, rx, a))
	sameBits(t, "flip", hb, referenceChannel(e, tx, rx, b))
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
// equal a fresh one.
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
			c.edit(e, &tx, &rx)
			got, err := e.Channel(tx, rx, tag)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "after edit", got, referenceChannel(e, tx, rx, tag))
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

// TestPhasorEvalsCountsCacheHitsAsZero pins the work counter: the first
// evaluation pays for every path, a repeat pays only for the scatterers
// and the tag, and an open-circuit tag pays nothing.
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
	if got, want := step(rest, flip), (moving+2)*n; got != want {
		t.Fatalf("warm pair evaluated %d phasors, want %d", got, want)
	}
	if got, want := step(rest, &TagReflection{Pos: rest.Pos}), (moving+1)*n; got != want {
		t.Fatalf("open-circuit pair evaluated %d phasors, want %d", got, want)
	}
}
