package regress

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"witag/internal/obs"
	"witag/internal/perf"
)

// FuzzLoadArtifact checks the BENCH/PROF artifact loader the gate reads
// baselines with: arbitrary input never panics; writer output loads back
// unchanged; and no strict prefix of writer output loads at all, so a
// truncated envelope is reported rather than accepted. `make fuzzseed`
// replays the seeds below; `make fuzz` explores.
func FuzzLoadArtifact(f *testing.F) {
	for kind := range artifactFiles {
		for _, seed := range [][]byte{nil, {0}, {3, 1, 4, 1, 5, 9, 2, 6}, []byte("fig5/d=3 label bytes")} {
			f.Add(uint8(kind), seed)
			buf, _ := writeFuzzArtifact(f, uint8(kind), seed)
			f.Add(uint8(kind), buf)
			f.Add(uint8(kind), buf[:len(buf)/2])
		}
	}
	// Pre-envelope layouts, which the loader rejects.
	f.Add(uint8(0), []byte(`[1,2,3]`))
	f.Add(uint8(1), []byte(`{"counters":{"a":1}}`))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		fn := artifactFiles[int(kind)%len(artifactFiles)]
		loadArtifact(&Artifact{}, fn, data) // must not panic

		buf, want := writeFuzzArtifact(t, kind, data)
		var got Artifact
		if err := loadArtifact(&got, fn, buf); err != nil {
			t.Fatalf("writer output does not load: %v\n%s", err, buf)
		}
		if g := artifactJSON(t, &got); g != artifactJSON(t, want) {
			t.Fatalf("writer output loaded back changed:\n got %s\nwant %s", g, artifactJSON(t, want))
		}
		// Cutting only trailing whitespace leaves the whole document.
		body := bytes.TrimRight(buf, " \t\r\n")
		for i := 0; i < len(body); i++ {
			if err := loadArtifact(&Artifact{}, fn, body[:i]); err == nil {
				t.Fatalf("%d-byte prefix of a %d-byte %s loaded as complete:\n%s", i, len(body), fn, body[:i])
			}
		}
	})
}

// artifactFiles are the three file kinds the loader tells apart by name.
var artifactFiles = []string{"BENCH_x.json", "BENCH_x.metrics.json", "PROF_x.json"}

// writeFuzzArtifact derives an artifact of the given kind from data,
// writes it with the matching writer, and returns the file's bytes and the
// artifact it should load back as.
func writeFuzzArtifact(tb testing.TB, kind uint8, data []byte) ([]byte, *Artifact) {
	tb.Helper()
	data = data[:min(len(data), 24)]
	text := strings.ToValidUTF8(string(data), "?")
	// prefix(i) is text's first i bytes, kept valid UTF-8 as JSON strings are.
	prefix := func(i int) string { return strings.ToValidUTF8(text[:min(i, len(text))], "?") }
	// Inputs of two bytes or more also stamp a failure.
	prov := Provenance{Experiment: text, Seed: int64(len(data)) - 3, Trials: int64(len(text)), Error: prefix(len(text) / 2)}
	dir := tb.TempDir()
	want := &Artifact{}
	var err error
	switch int(kind) % len(artifactFiles) {
	case 0:
		series := map[string]any{"Label": text, "Points": append([]byte(nil), data...)}
		err = WriteSeries(dir, "x", prov, series)
		raw, _ := json.Marshal(series)
		want.Series, want.SeriesProv = raw, &prov
	case 1:
		reg := obs.NewRegistry()
		for i, b := range data {
			reg.Counter(prefix(i) + "c").Add(int64(b))
		}
		if len(data) > 0 {
			reg.Histogram("h", obs.Exp2Bounds(1, 4), obs.Volatile).Observe(int64(data[0]))
		}
		snap := reg.Snapshot()
		err = WriteMetrics(dir, "x", prov, snap)
		want.Metrics, want.MetricsProv = &snap, &prov
	default:
		rep := &perf.Report{Trials: int64(len(data)), Phases: []perf.PhaseStat{}}
		for i, b := range data {
			rep.Phases = append(rep.Phases, perf.PhaseStat{Phase: prefix(i), Count: int64(b), WallShare: float64(b) / 7})
		}
		err = WriteProf(dir, "x", prov, rep)
		want.Prof, want.ProfProv = rep, &prov
	}
	if err != nil {
		tb.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, artifactFiles[int(kind)%len(artifactFiles)]))
	if err != nil {
		tb.Fatal(err)
	}
	return buf, want
}

// artifactJSON renders an artifact for comparison, with the series in
// compact form so the indentation it was stored with does not matter.
func artifactJSON(t *testing.T, a *Artifact) string {
	t.Helper()
	c := *a
	if c.Series != nil {
		var b bytes.Buffer
		if err := json.Compact(&b, c.Series); err != nil {
			t.Fatal(err)
		}
		c.Series = b.Bytes()
	}
	out, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
