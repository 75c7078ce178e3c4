package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"testing"
	"time"

	"witag/internal/obs"
	"witag/internal/obs/obstest"
)

// The log tests sit outside package obs: obstest imports obs, so only an
// external test package may use both.

// fixedClock returns a now func stepping one second per record from a
// fixed origin, so tests exercise real, distinct timestamps.
func fixedClock(origin time.Time) func() time.Time {
	n := 0
	return func() time.Time {
		n++
		return origin.Add(time.Duration(n) * time.Second)
	}
}

// clockHandler stamps every record with the next reading of now before
// the wrapped handler writes it.
type clockHandler struct {
	slog.Handler
	now func() time.Time
}

func (h clockHandler) Handle(ctx context.Context, r slog.Record) error {
	r.Time = h.now()
	return h.Handler.Handle(ctx, r)
}

func (h clockHandler) WithAttrs(as []slog.Attr) slog.Handler {
	return clockHandler{h.Handler.WithAttrs(as), h.now}
}

func (h clockHandler) WithGroup(name string) slog.Handler {
	return clockHandler{h.Handler.WithGroup(name), h.now}
}

// testLogger is obs.NewLogger on w with its record times drawn from a
// fixed clock starting one second after origin.
func testLogger(w *bytes.Buffer, level slog.Leveler, origin time.Time) *slog.Logger {
	return slog.New(clockHandler{obs.NewLogger(w, level).Handler(), fixedClock(origin)})
}

// TestJSONLHandlerFixedFieldOrder holds the JSON-lines handler NewLogger
// builds to the key order ts, level, msg, then the attributes.
func TestJSONLHandlerFixedFieldOrder(t *testing.T) {
	var buf bytes.Buffer
	// A clock outside UTC: ts is written in UTC all the same.
	origin := time.Unix(1700000000, 5).In(time.FixedZone("UTC+1", 3600))
	log := testLogger(&buf, slog.LevelInfo, origin)
	log = log.With(slog.String("campaign", "bench"))
	log.Info("run started", slog.Int("runs", 3), slog.Float64("gain", 68.5), slog.Bool("ok", true))
	log.Debug("filtered out")
	log.Warn("anomaly", slog.String("rule", "trial_failed"), slog.Int64("wall_ms", -2))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (debug filtered):\n%s", len(lines), buf.String())
	}
	want0 := `{"ts":"2023-11-14T22:13:21.000000005Z","level":"INFO","msg":"run started","campaign":"bench","runs":3,"gain":68.5,"ok":true}`
	if lines[0] != want0 {
		t.Errorf("line 0:\n got %s\nwant %s", lines[0], want0)
	}
	want1 := `{"ts":"2023-11-14T22:13:22.000000005Z","level":"WARN","msg":"anomaly","campaign":"bench","rule":"trial_failed","wall_ms":-2}`
	if lines[1] != want1 {
		t.Errorf("line 1:\n got %s\nwant %s", lines[1], want1)
	}
}

func TestJSONLHandlerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	log := obs.NewLogger(&buf, slog.LevelError)
	log.Info("no")
	log.Warn("no")
	log.Error("yes")
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("LevelError logger wrote %d lines, want 1:\n%s", n, buf.String())
	}
	buf.Reset()
	log = obs.NewLogger(&buf, nil)
	log.Debug("no")
	log.Info("yes")
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("nil-level logger wrote %d lines, want 1 (info and up):\n%s", n, buf.String())
	}
}

func TestCanonicalizeLogStripsVolatileKeys(t *testing.T) {
	in := strings.Join([]string{
		`{"ts":"2023-11-14T22:13:21Z","level":"INFO","msg":"a","runs":3}`,
		`{"ts":"2023-11-14T22:13:22Z","level":"INFO","msg":"b","wall_ms":812,"rate_per_s":99.5,"done":6}`,
		`{"msg":"nested stays","obj":{"ts":"inner is not top-level"},"arr":[1,2]}`,
		`not json at all`,
	}, "\n") + "\n"
	want := strings.Join([]string{
		`{"level":"INFO","msg":"a","runs":3}`,
		`{"level":"INFO","msg":"b","done":6}`,
		`{"msg":"nested stays","obj":{"ts":"inner is not top-level"},"arr":[1,2]}`,
		`not json at all`,
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := obstest.CanonicalizeLog(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Fatalf("canonicalized:\n got %q\nwant %q", out.String(), want)
	}
}

func TestCanonicalizedLogsIdenticalAcrossClocks(t *testing.T) {
	// Two runs logging the same records at different wall times must
	// canonicalize to identical bytes — the determinism suite's form.
	emit := func(origin time.Time) string {
		var buf bytes.Buffer
		log := testLogger(&buf, slog.LevelInfo, origin)
		log = log.With(slog.String("campaign", "bench"))
		log.Info("run started", slog.Int64("seed", 42))
		log.Info("experiment finished", slog.String("experiment", "figure5"), slog.Int("trials", 96))
		log.Info("run finished", slog.String("outcome", "ok"), slog.Int64("wall_ms", int64(origin.UnixNano()%1000)))
		return buf.String()
	}
	a := emit(time.Unix(1700000000, 0).UTC())
	b := emit(time.Unix(1800000000, 123).UTC())
	if a == b {
		t.Fatal("raw logs identical — the clock injection is broken, test is vacuous")
	}
	var ca, cb bytes.Buffer
	if err := obstest.CanonicalizeLog(strings.NewReader(a), &ca); err != nil {
		t.Fatal(err)
	}
	if err := obstest.CanonicalizeLog(strings.NewReader(b), &cb); err != nil {
		t.Fatal(err)
	}
	if ca.String() != cb.String() {
		t.Fatalf("canonicalized logs differ:\n%s\nvs\n%s", ca.String(), cb.String())
	}
	if strings.Contains(ca.String(), `"ts"`) || strings.Contains(ca.String(), `"wall_ms"`) {
		t.Fatalf("volatile keys survived canonicalization:\n%s", ca.String())
	}
}

// TestCanonicalizeLogCases pins CanonicalizeLog byte for byte on the
// shapes it meets: the logger's output (groups, escapes, durations,
// errors), other JSONL lines, non-objects, nesting, padding and
// truncation. Lines that are not one complete JSON object pass through
// unchanged.
func TestCanonicalizeLogCases(t *testing.T) {
	const ts = `"ts":"2023-11-14T22:13:21.5Z"`
	cases := []struct{ name, in, want string }{
		{"handler line",
			`{` + ts + `,"level":"INFO","msg":"run started","campaign":"bench","seed":42}`,
			`{"level":"INFO","msg":"run started","campaign":"bench","seed":42}`},
		{"group keys",
			`{` + ts + `,"level":"WARN","msg":"stall","campaign":"bench","xfer.rounds":12,"xfer.link.retries":3}`,
			`{"level":"WARN","msg":"stall","campaign":"bench","xfer.rounds":12,"xfer.link.retries":3}`},
		{"escaped values",
			`{` + ts + `,"level":"INFO","msg":"quote \" backslash \\ newline \n tab \t","path":"C:\\tmp\\x"}`,
			`{"level":"INFO","msg":"quote \" backslash \\ newline \n tab \t","path":"C:\\tmp\\x"}`},
		{"escaped keys",
			`{` + ts + `,"we\"ird":1,"new\nline":2,"back\\slash":3}`,
			`{"we\"ird":1,"new\nline":2,"back\\slash":3}`},
		{"unicode",
			`{` + ts + `,"msg":"héllo ✓","\u00e9":"\u00e9"}`,
			`{"msg":"héllo ✓","é":"\u00e9"}`},
		{"durations",
			`{` + ts + `,"level":"INFO","msg":"experiment finished","experiment":"fig5","wall_ms":812,"elapsed":"1.5s","rate_per_s":99.5}`,
			`{"level":"INFO","msg":"experiment finished","experiment":"fig5","elapsed":"1.5s"}`},
		{"error",
			`{` + ts + `,"level":"ERROR","msg":"run finished","outcome":"error","error":"open /x: no such file or directory","wall_ms":3}`,
			`{"level":"ERROR","msg":"run finished","outcome":"error","error":"open /x: no such file or directory"}`},
		{"literals",
			`{` + ts + `,"gain":68.5,"tiny":1e-07,"neg":-3,"ok":true,"no":false,"nil":null}`,
			`{"gain":68.5,"tiny":1e-07,"neg":-3,"ok":true,"no":false,"nil":null}`},
		{"trace event",
			`{"kind":"round","trial":3,"labels":"fig5/d=3/run=2","wall_ms":0.5,"ber":0.01}`,
			`{"kind":"round","trial":3,"labels":"fig5/d=3/run=2","ber":0.01}`},
		{"only volatile", `{` + ts + `,"wall_ms":1,"rate_per_s":2}`, `{}`},
		{"empty object", `{}`, `{}`},
		{"volatile last", `{"level":"INFO",` + ts + `}`, `{"level":"INFO"}`},
		{"volatile middle", `{"a":1,` + ts + `,"b":2}`, `{"a":1,"b":2}`},
		{"duplicate volatile", `{"ts":"a","ts":"b","msg":"m"}`, `{"msg":"m"}`},
		{"near-miss keys", `{"tss":1,"xts":2,"ts.sub":3,"TS":4,"wall_ms_total":5}`, `{"tss":1,"xts":2,"ts.sub":3,"TS":4,"wall_ms_total":5}`},
		{"nested stays",
			`{"obj":{"ts":"inner","a":[1,{"ts":2}]},"ts":"outer","arr":[[],{}]}`,
			`{"obj":{"ts":"inner","a":[1,{"ts":2}]},"arr":[[],{}]}`},
		{"brackets in strings", `{"msg":"a } b { c ] [","ts":"x","s":"\"}"}`, `{"msg":"a } b { c ] [","s":"\"}"}`},
		{"padded", "  { \"ts\" : \"x\" ,\t\"level\" : \"INFO\" ,\"n\": 1 }  ", `{"level":"INFO","n":1}`},
		{"padded composite", `{"obj": {"a": 1, "b": [1, 2]}, "ts": "x"}`, `{"obj":{"a": 1, "b": [1, 2]}}`},
		{"not json", `not json at all`, `not json at all`},
		{"array", `[1,2,3]`, `[1,2,3]`},
		{"string", `"just a string"`, `"just a string"`},
		{"number", `42`, `42`},
		{"null", `null`, `null`},
		{"empty line", ``, ``},
		{"truncated in string", `{"ts":"x","level":"IN`, `{"ts":"x","level":"IN`},
		{"truncated after value", `{"ts":"x","level":"INFO"`, `{"ts":"x","level":"INFO"`},
		{"truncated number", `{"ts":"x","n":12`, `{"ts":"x","n":12`},
		{"truncated after comma", `{"ts":"x",`, `{"ts":"x",`},
		{"truncated key", `{"ts"`, `{"ts"`},
		{"truncated colon", `{"ts":`, `{"ts":`},
		{"open brace", `{`, `{`},
		{"truncated nested", `{"obj":{"ts":1}`, `{"obj":{"ts":1}`},
		{"truncated escape", `{"msg":"abc\"`, `{"msg":"abc\"`},
	}
	// Lines written by the logger itself.
	var hb bytes.Buffer
	log := testLogger(&hb, slog.LevelInfo, time.Unix(1700000000, 0).UTC()).With(slog.String("campaign", "bench"))
	log.WithGroup("xfer").Info("done \"quoted\"", slog.Duration("elapsed", 1500*time.Millisecond),
		slog.Any("err", errors.New("open x:\tno such file")), slog.Group("link", slog.Int("retries", 2)))
	log.Error("run finished", slog.String("outcome", "error"), slog.Int64("wall_ms", 7), slog.Float64("rate_per_s", 0.25))
	handlerWant := []string{
		`{"level":"INFO","msg":"done \"quoted\"","campaign":"bench","xfer":{"elapsed":1500000000,"err":"open x:\tno such file","link":{"retries":2}}}`,
		`{"level":"ERROR","msg":"run finished","campaign":"bench","outcome":"error"}`,
	}
	for i, line := range strings.Split(strings.TrimSuffix(hb.String(), "\n"), "\n") {
		cases = append(cases, struct{ name, in, want string }{fmt.Sprintf("handler output %d", i), line, handlerWant[i]})
	}

	var in, want strings.Builder
	for _, c := range cases {
		var out bytes.Buffer
		if err := obstest.CanonicalizeLog(strings.NewReader(c.in+"\n"), &out); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out.String() != c.want+"\n" {
			t.Errorf("%s:\n  in %s\n got %s\nwant %s", c.name, c.in, strings.TrimSuffix(out.String(), "\n"), c.want)
		}
		in.WriteString(c.in + "\n")
		want.WriteString(c.want + "\n")
	}
	// The same lines as one log: each line is canonicalized on its own.
	var out bytes.Buffer
	if err := obstest.CanonicalizeLog(strings.NewReader(in.String()), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Errorf("whole log:\n got %q\nwant %q", out.String(), want.String())
	}
}

// TestJSONLHandlerEscapesToValidJSON logs text that Go quoting would render
// as invalid JSON (\x01, \a, \v, \U000e0001, raw invalid UTF-8) in
// messages, keys and values, and non-finite floats. Every line must be
// valid JSON that decodes back to the text logged (invalid bytes as
// U+FFFD), and CanonicalizeLog must strip its ts.
func TestJSONLHandlerEscapesToValidJSON(t *testing.T) {
	cases := []struct{ name, text, want string }{
		{"c0 controls", "a\x00\x01\a\b\t\n\v\f\r\x1fz", "a\x00\x01\a\b\t\n\v\f\r\x1fz"},
		{"delete", "x\x7fy", "x\x7fy"},
		{"invalid utf-8", "ok\xff\xfe\xc3(", "ok\ufffd\ufffd\ufffd("},
		{"truncated rune", "\xe2\x9c", "\ufffd\ufffd"},
		{"non-printable runes", "\u00ad\u2028\u2029\U000e0001", "\u00ad\u2028\u2029\U000e0001"},
		{"quotes and html", `"\\<&>'`, `"\\<&>'`},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		log := testLogger(&buf, slog.LevelInfo, time.Unix(1700000000, 0).UTC())
		log.Info(c.text, slog.String(c.text, c.text), slog.Any("err", errors.New(c.text)),
			slog.Float64("nan", math.NaN()), slog.Float64("inf", math.Inf(-1)))
		line := strings.TrimSuffix(buf.String(), "\n")
		if strings.Contains(line, "\n") || !json.Valid([]byte(line)) {
			t.Fatalf("%s: not one valid JSON line: %q", c.name, buf.String())
		}
		var got map[string]any
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		if got["msg"] != c.want || got[c.want] != c.want || got["err"] != c.want {
			t.Errorf("%s: decoded %q, want msg, key and values %q", c.name, got, c.want)
		}
		// JSON has no NaN or infinity: log/slog writes an error string.
		if nan, _ := got["nan"].(string); !strings.Contains(nan, "NaN") {
			t.Errorf("%s: NaN decoded as %v", c.name, got["nan"])
		}
		if inf, _ := got["inf"].(string); !strings.Contains(inf, "-Inf") {
			t.Errorf("%s: -Inf decoded as %v", c.name, got["inf"])
		}
		var canon bytes.Buffer
		if err := obstest.CanonicalizeLog(&buf, &canon); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(bytes.TrimSuffix(canon.Bytes(), []byte("\n"))) || strings.Contains(canon.String(), `"ts":`) {
			t.Errorf("%s: canonicalized line kept ts or is invalid: %q", c.name, canon.String())
		}
	}
}

// FuzzJSONLHandler checks that every record the logger writes is one valid
// JSON line, whatever the message, keys, group names and values hold, and
// that CanonicalizeLog strips its ts.
func FuzzJSONLHandler(f *testing.F) {
	f.Add("run started", "campaign", "bench", 68.5, int64(3))
	f.Add("a\x01\a\v\x7f", "k\n\"ey", "\xff\xfe\U000e0001\u2028", 0.0, int64(-1))
	f.Add("", "", "", -1e308, int64(0))
	f.Fuzz(func(t *testing.T, msg, key, val string, x float64, n int64) {
		var buf bytes.Buffer
		log := obs.NewLogger(&buf, slog.LevelDebug).With(key, val).WithGroup(val)
		log.Warn(msg, key, val, "x", x, slog.Int64("n", n), slog.Any("err", errors.New(val)), slog.Group(key, "v", val))
		line, ok := bytes.CutSuffix(buf.Bytes(), []byte("\n"))
		if !ok || bytes.IndexByte(line, '\n') >= 0 || !json.Valid(line) {
			t.Fatalf("record is not one valid JSON line: %q", buf.Bytes())
		}
		var canon bytes.Buffer
		if err := obstest.CanonicalizeLog(bytes.NewReader(buf.Bytes()), &canon); err != nil {
			t.Fatal(err)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(canon.Bytes(), &obj); err != nil {
			t.Fatalf("canonicalized record %q: %v", canon.Bytes(), err)
		}
		if _, ok := obj["ts"]; ok {
			t.Fatalf("ts survived canonicalization: %q", canon.Bytes())
		}
	})
}
