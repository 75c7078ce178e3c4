package obstest

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzCanonicalizeLog checks the log canonicalizer the determinism suite
// compares campaign logs through: arbitrary input never panics;
// canonicalizing twice gives what canonicalizing once gave; every line it
// rewrites comes out as valid JSON; and no output line that parses as a
// JSON object keeps a top-level VolatileLogKeys key.
func FuzzCanonicalizeLog(f *testing.F) {
	f.Add([]byte(`{"ts":"2023-11-14T22:13:21Z","level":"INFO","msg":"a","wall_ms":3,"n":1}` + "\n"))
	f.Add([]byte(` { "ts" : 1 , "obj" : {"ts": [1, "}"]} } ` + "\nnot json\n[1]\n"))
	f.Add([]byte(`{"t\u0073":1,"rate_per_s":2}{"ts":3}` + "\n" + `{"ts":"x",`))
	f.Add([]byte("{\"msg\":\"\\x01\",\"ts\":1}\r\n{\"k\\/\":\"\xff\"}"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var once, twice bytes.Buffer
		if err := CanonicalizeLog(bytes.NewReader(data), &once); err != nil {
			t.Fatal(err)
		}
		if err := CanonicalizeLog(bytes.NewReader(once.Bytes()), &twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("not idempotent:\nonce  %q\ntwice %q", once.Bytes(), twice.Bytes())
		}
		in, out := logLines(data), logLines(once.Bytes())
		if len(in) != len(out) {
			t.Fatalf("%d input lines became %d", len(in), len(out))
		}
		for i := range in {
			if !bytes.Equal(in[i], out[i]) && !json.Valid(out[i]) {
				t.Fatalf("line %q rewritten to invalid JSON %q", in[i], out[i])
			}
		}
		for _, line := range bytes.Split(once.Bytes(), []byte("\n")) {
			var obj map[string]json.RawMessage
			if json.Unmarshal(line, &obj) != nil {
				continue
			}
			for k := range obj {
				if VolatileLogKeys[k] {
					t.Fatalf("volatile key %q survived in %q", k, line)
				}
			}
		}
	})
}

// logLines splits a log into its '\n'-terminated lines; a final line
// without its newline counts as a line.
func logLines(b []byte) [][]byte {
	lines := bytes.Split(b, []byte("\n"))
	if len(b) == 0 || b[len(b)-1] == '\n' {
		lines = lines[:len(lines)-1]
	}
	return lines
}
