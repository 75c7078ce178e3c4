package channel

import (
	"math"
	"math/cmplx"
	"slices"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("dist = %v", d)
	}
	if d := (Point{1, 1}).Dist(Point{1, 1}); d != 0 {
		t.Fatalf("self dist = %v", d)
	}
	if (Point{1, 2}).String() != "(1.00, 2.00)" {
		t.Fatal("String format changed")
	}
	if p := (Point{1, 2}).Add(0.5, -1); p.X != 1.5 || p.Y != 1 {
		t.Fatalf("Add = %v", p)
	}
}

func TestWallCrossing(t *testing.T) {
	w := Wall{A: Point{5, -1}, B: Point{5, 1}, AttenuationDb: 10}
	if !w.Crosses(Point{0, 0}, Point{10, 0}) {
		t.Fatal("horizontal path should cross vertical wall")
	}
	if w.Crosses(Point{0, 0}, Point{4, 0}) {
		t.Fatal("short path should not cross wall")
	}
	if w.Crosses(Point{0, 2}, Point{10, 2}) {
		t.Fatal("path above wall should not cross")
	}
	// Collinear touching endpoint counts.
	if !w.Crosses(Point{5, 0}, Point{10, 0}) {
		t.Fatal("path starting on the wall should count as crossing")
	}
}

func TestPathAttenuationSumsWalls(t *testing.T) {
	walls := []Wall{
		{A: Point{2, -1}, B: Point{2, 1}, AttenuationDb: 5},
		{A: Point{4, -1}, B: Point{4, 1}, AttenuationDb: 7},
		{A: Point{20, -1}, B: Point{20, 1}, AttenuationDb: 100},
	}
	got := PathAttenuationDb(walls, Point{0, 0}, Point{10, 0})
	if got != 12 {
		t.Fatalf("attenuation = %v, want 12", got)
	}
}

func TestFriisAmplitude(t *testing.T) {
	lam := Wavelength(DefaultFreqHz)
	a1, err := FriisAmplitude(1, DefaultFreqHz, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1-lam/(4*math.Pi)) > 1e-12 {
		t.Fatalf("1 m amplitude = %v", a1)
	}
	a2, _ := FriisAmplitude(2, DefaultFreqHz, 2)
	if math.Abs(a2-a1/2) > 1e-12 {
		t.Fatal("free-space amplitude should halve when distance doubles")
	}
	// Higher exponent attenuates faster.
	a2n, _ := FriisAmplitude(2, DefaultFreqHz, 3.5)
	if a2n >= a2 {
		t.Fatal("NLoS exponent should attenuate more")
	}
	for _, bad := range []struct{ d, f, p float64 }{{0, 1e9, 2}, {1, 0, 2}, {1, 1e9, 0}} {
		if _, err := FriisAmplitude(bad.d, bad.f, bad.p); err == nil {
			t.Fatalf("accepted %+v", bad)
		}
	}
}

func TestBackscatterInverseSquareLaw(t *testing.T) {
	// Power ∝ 1/(Ds²·Dr²): doubling one hop distance quarters the power.
	a1, err := BackscatterAmplitude(2, 3, DefaultFreqHz, 1)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := BackscatterAmplitude(4, 3, DefaultFreqHz, 1)
	if math.Abs(a2-a1/2) > 1e-15 {
		t.Fatalf("amplitude should halve: %v vs %v", a1, a2)
	}
	if _, err := BackscatterAmplitude(0, 1, DefaultFreqHz, 1); err == nil {
		t.Fatal("zero distance accepted")
	}
	if _, err := BackscatterAmplitude(1, 1, DefaultFreqHz, -1); err == nil {
		t.Fatal("negative gain accepted")
	}
}

func TestBackscatterWeakestMidSpan(t *testing.T) {
	// With Ds + Dr fixed, the reflected power is minimised at Ds = Dr —
	// the paper's explanation for Figure 5's mid-span BER bump.
	const total = 8.0
	mid, _ := BackscatterAmplitude(4, 4, DefaultFreqHz, 1)
	for _, ds := range []float64{1, 2, 3, 3.9} {
		a, _ := BackscatterAmplitude(ds, total-ds, DefaultFreqHz, 1)
		if a <= mid {
			t.Fatalf("amplitude at Ds=%v (%v) not above mid-span (%v)", ds, a, mid)
		}
	}
}

func TestDbConversions(t *testing.T) {
	if math.Abs(DbToAmplitude(6.0205999)-2) > 1e-6 {
		t.Fatal("6 dB should be amplitude 2")
	}
	if math.Abs(amplitudeToDb(10)-20) > 1e-12 {
		t.Fatal("amplitude 10 should be 20 dB")
	}
	if !math.IsInf(amplitudeToDb(0), -1) {
		t.Fatal("zero amplitude should be -Inf dB")
	}
	if math.Abs(DbmToWatts(30)-1) > 1e-12 {
		t.Fatal("30 dBm should be 1 W")
	}
}

// amplitudeToDb converts an amplitude ratio to a dB power ratio: the
// inverse DbToAmplitude is checked against.
func amplitudeToDb(a float64) float64 {
	if a <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(a)
}

func TestDbRoundTripProperty(t *testing.T) {
	f := func(raw float64) bool {
		db := math.Mod(math.Abs(raw), 100) - 50
		return math.Abs(amplitudeToDb(DbToAmplitude(db))-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnvironmentChannelBasics(t *testing.T) {
	e := NewEnvironment(1)
	h, err := e.Channel(Point{0, 0}, Point{8, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 56 {
		t.Fatalf("channel has %d subcarriers", len(h))
	}
	want, _ := FriisAmplitude(8, e.FreqHz, 2)
	for k, v := range h {
		if math.Abs(cmplx.Abs(v)-want) > 1e-12 {
			t.Fatalf("subcarrier %d amplitude %v, want %v", k, cmplx.Abs(v), want)
		}
	}
	// Direct path at 8 m spans many wavelengths: phase must differ across
	// the band (frequency selectivity from delay).
	if cmplx.Phase(h[0]) == cmplx.Phase(h[55]) {
		t.Fatal("no phase ramp across subcarriers")
	}
	if _, err := e.Channel(Point{1, 1}, Point{1, 1}, nil); err == nil {
		t.Fatal("co-located endpoints accepted")
	}
	e.NumSubcarriers = 0
	if _, err := e.Channel(Point{0, 0}, Point{8, 0}, nil); err == nil {
		t.Fatal("zero subcarriers accepted")
	}
}

func TestEnvironmentWallsAttenuate(t *testing.T) {
	open := NewEnvironment(2)
	walled := NewEnvironment(2)
	walled.AddWall(Point{4, -5}, Point{4, 5}, 12, "concrete")
	hOpen, _ := open.Channel(Point{0, 0}, Point{8, 0}, nil)
	hWalled, _ := walled.Channel(Point{0, 0}, Point{8, 0}, nil)
	ratio := MeanPower(hWalled) / MeanPower(hOpen)
	wantRatio := math.Pow(10, -12.0/10)
	if math.Abs(ratio-wantRatio)/wantRatio > 1e-9 {
		t.Fatalf("wall attenuation ratio %v, want %v", ratio, wantRatio)
	}
}

func TestEnvironmentReflectorsAddMultipath(t *testing.T) {
	e := NewEnvironment(3)
	e.AddReflector(Point{4, 3}, 5)
	h, _ := e.Channel(Point{0, 0}, Point{8, 0}, nil)
	flat := NewEnvironment(3)
	hFlat, _ := flat.Channel(Point{0, 0}, Point{8, 0}, nil)
	// The reflector must change per-subcarrier structure, not just scale.
	varied := false
	for k := range h {
		r := cmplx.Abs(h[k]) / cmplx.Abs(hFlat[k])
		r0 := cmplx.Abs(h[0]) / cmplx.Abs(hFlat[0])
		if math.Abs(r-r0) > 1e-6 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("reflector produced no frequency selectivity")
	}
}

func TestTagReflectionChangesChannel(t *testing.T) {
	e := NewEnvironment(4)
	tagAt := Point{3, 0.3}
	tx, rx := Point{0, 0}, Point{8, 0}
	h0, _ := e.Channel(tx, rx, nil)
	hA, _ := e.Channel(tx, rx, &TagReflection{Pos: tagAt, Coeff: 40})
	hB, _ := e.Channel(tx, rx, &TagReflection{Pos: tagAt, Coeff: -40})
	if MeanPower(diff(hA, h0)) == 0 {
		t.Fatal("tag reflection invisible")
	}
	// 0° and 180° states must be distinct and symmetric about h0.
	for k := range h0 {
		mid := (hA[k] + hB[k]) / 2
		if cmplx.Abs(mid-h0[k]) > 1e-12 {
			t.Fatalf("subcarrier %d: flip states not symmetric about tag-free channel", k)
		}
	}
}

func TestPhaseFlipDoublesDeltaVersusOnOff(t *testing.T) {
	// Figure 3: switching 0°↔180° produces twice the |Δh| (4x the power)
	// of open↔short switching.
	e := NewEnvironment(5)
	tagAt := Point{5, 0.5}
	tx, rx := Point{0, 0}, Point{8, 0}
	onOff, err := e.TagDeltaPower(tx, rx,
		&TagReflection{Pos: tagAt, Coeff: 40},
		&TagReflection{Pos: tagAt, Coeff: 0})
	if err != nil {
		t.Fatal(err)
	}
	flip, err := e.TagDeltaPower(tx, rx,
		&TagReflection{Pos: tagAt, Coeff: 40},
		&TagReflection{Pos: tagAt, Coeff: -40})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(flip/onOff-4) > 1e-9 {
		t.Fatalf("flip/on-off power ratio = %v, want 4", flip/onOff)
	}
}

func TestTagDeltaWeakestMidSpan(t *testing.T) {
	e := NewEnvironment(6)
	tx, rx := Point{0, 0}, Point{8, 0}
	state := func(p Point, sign float64) *TagReflection {
		return &TagReflection{Pos: p, Coeff: complex(40*sign, 0)}
	}
	mid, _ := e.TagDeltaPower(tx, rx, state(Point{4, 0.2}, 1), state(Point{4, 0.2}, -1))
	end, _ := e.TagDeltaPower(tx, rx, state(Point{1, 0.2}, 1), state(Point{1, 0.2}, -1))
	if end <= mid {
		t.Fatalf("tag delta at the end (%v) should exceed mid-span (%v)", end, mid)
	}
}

func TestScatterersMoveAndChangeChannel(t *testing.T) {
	e := NewEnvironment(7)
	e.AddScatterers(5, 0, 0, 8, 5, 3, 1.2)
	if len(e.Scatterers) != 5 {
		t.Fatal("scatterers not added")
	}
	tx, rx := Point{0, 0}, Point{8, 0}
	h1, _ := e.Channel(tx, rx, nil)
	before := e.Scatterers[0].Pos
	e.Advance(1.0)
	if e.Scatterers[0].Pos == before {
		t.Fatal("scatterer did not move")
	}
	h2, _ := e.Channel(tx, rx, nil)
	if MeanPower(diff(h1, h2)) == 0 {
		t.Fatal("moving people did not perturb the channel")
	}
}

func TestAdvanceDeterministicUnderSeed(t *testing.T) {
	mk := func() *Environment {
		e := NewEnvironment(99)
		e.AddScatterers(3, 0, 0, 10, 10, 2, 1)
		e.Advance(0.5)
		return e
	}
	a, b := mk(), mk()
	for i := range a.Scatterers {
		if a.Scatterers[i].Pos != b.Scatterers[i].Pos {
			t.Fatal("scatterer walk not deterministic under seed")
		}
	}
}

func TestSNRPlausibleAt8m(t *testing.T) {
	e := NewEnvironment(8)
	snr, err := e.SNR(Point{0, 0}, Point{8, 0})
	if err != nil {
		t.Fatal(err)
	}
	db := 10 * math.Log10(snr)
	// 15 dBm - ~58 dB path loss - (-94 dBm floor) ≈ 51 dB.
	if db < 40 || db > 60 {
		t.Fatalf("LoS SNR at 8 m = %.1f dB, expected ≈51", db)
	}
}

func TestSNRDropsThroughWalls(t *testing.T) {
	e := NewEnvironment(9)
	open, _ := e.SNR(Point{0, 0}, Point{17, 0})
	e.AddWall(Point{5, -5}, Point{5, 5}, 10, "concrete")
	e.AddWall(Point{9, -5}, Point{9, 5}, 8, "metal cabinet")
	blocked, _ := e.SNR(Point{0, 0}, Point{17, 0})
	lost := 10 * math.Log10(open/blocked)
	if math.Abs(lost-18) > 1e-6 {
		t.Fatalf("walls removed %v dB, want 18", lost)
	}
}

// TestSNRMatchesChannel: SNR sums into the environment's own buffer, so
// once warm it allocates nothing, yet it must equal the SNR of the
// channel Channel(tx, rx, nil) returns, bit for bit, as the scatterers
// walk and as a wall's attenuation is edited in place (Figure 6 retunes
// one between SNR calls), and a fresh Channel buffer must stay its own.
func TestSNRMatchesChannel(t *testing.T) {
	e := NewEnvironment(12)
	e.AddWall(Point{3.5, -6}, Point{3.5, 6}, 7, "wooden wall")
	e.AddReflector(Point{2, 2.5}, 55)
	e.AddScatterers(6, 0, -4, 17, 4, 22, 1.2)
	tx, rx := Point{0, 0}, Point{17, 0}
	for r := range 20 {
		if r == 10 {
			e.Walls[0].AttenuationDb = 12
		}
		e.Advance(RoundStepS)
		h, err := e.Channel(tx, rx, nil)
		if err != nil {
			t.Fatal(err)
		}
		hCopy := slices.Clone(h)
		got, err := e.SNR(tx, rx)
		if err != nil {
			t.Fatal(err)
		}
		want := SNRLinear(e.TxPowerDbm, MeanPower(h), e.NoiseFloorDbm)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d: SNR %v, the Channel's %v", r, got, want)
		}
		if !slices.Equal(h, hCopy) {
			t.Fatalf("round %d: SNR wrote into a channel Channel returned", r)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.SNR(tx, rx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm SNR allocates %v times, want 0", allocs)
	}
}

func TestMeanPowerEmpty(t *testing.T) {
	if MeanPower(nil) != 0 {
		t.Fatal("MeanPower(nil) != 0")
	}
}

func TestSNRLinearZeroChannel(t *testing.T) {
	if SNRLinear(15, 0, -94) != 0 {
		t.Fatal("zero channel power should give zero SNR")
	}
}

func diff(a, b []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func TestTagExcessPathAddsFrequencySelectivity(t *testing.T) {
	// Without excess path, the tag's channel delta is nearly flat across
	// the band (the geometric excess of a near-line tag is centimetres);
	// with 7.5 m of electrical excess the delta's phase must sweep more
	// than a radian across the 56 used subcarriers.
	e := NewEnvironment(10)
	tx, rx := Point{0, 0}, Point{8, 0}
	sweep := func(excess float64) float64 {
		h0, err := e.Channel(tx, rx, &TagReflection{Pos: Point{2, 0.3}, Coeff: 40, ExcessPathM: excess})
		if err != nil {
			t.Fatal(err)
		}
		h1, err := e.Channel(tx, rx, &TagReflection{Pos: Point{2, 0.3}, Coeff: -40, ExcessPathM: excess})
		if err != nil {
			t.Fatal(err)
		}
		// Unwrapped cumulative phase sweep of the delta across the band.
		total := 0.0
		for k := 1; k < len(h0); k++ {
			step := cmplx.Phase(h0[k]-h1[k]) - cmplx.Phase(h0[k-1]-h1[k-1])
			for step > math.Pi {
				step -= 2 * math.Pi
			}
			for step < -math.Pi {
				step += 2 * math.Pi
			}
			total += math.Abs(step)
		}
		return total
	}
	flat := sweep(0)
	delayed := sweep(7.5)
	if delayed < 1.0 {
		t.Fatalf("7.5 m excess path sweeps only %v rad across the band", delayed)
	}
	if delayed <= flat {
		t.Fatalf("excess path should increase frequency selectivity: %v vs %v", delayed, flat)
	}
}

func TestWallJitterChangesSNR(t *testing.T) {
	e := NewEnvironment(11)
	e.AddWall(Point{4, -5}, Point{4, 5}, 10, "wall")
	before, err := e.SNR(Point{0, 0}, Point{8, 0})
	if err != nil {
		t.Fatal(err)
	}
	e.Walls[0].AttenuationDb += 3
	after, err := e.SNR(Point{0, 0}, Point{8, 0})
	if err != nil {
		t.Fatal(err)
	}
	lost := 10 * math.Log10(before/after)
	if math.Abs(lost-3) > 1e-9 {
		t.Fatalf("3 dB wall change moved SNR by %v dB", lost)
	}
}
