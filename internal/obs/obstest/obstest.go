// Package obstest holds test helpers shared by the tests of the packages
// that write campaign logs through obs's JSONL handler.
package obstest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// VolatileLogKeys names the log fields that carry wall-clock data and are
// stripped by CanonicalizeLog before determinism comparisons.
var VolatileLogKeys = map[string]bool{"ts": true, "wall_ms": true, "rate_per_s": true}

// CanonicalizeLog copies a JSONL log from r to w with every
// VolatileLogKeys field removed from every line, preserving field order
// otherwise. Two campaign logs that differ only in wall-clock data
// canonicalize to identical bytes — the form the determinism tests
// compare. Lines that are not exactly one JSON object pass through
// unchanged; lines end at '\n' alone, so canonicalizing is idempotent.
func CanonicalizeLog(r io.Reader, w io.Writer) error {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			line = bytes.TrimSuffix(line, []byte{'\n'})
			if out, serr := stripVolatileKeys(line); serr == nil {
				line = out
			}
			bw.Write(line)
			bw.WriteByte('\n')
		}
		if err == io.EOF {
			return bw.Flush()
		}
		if err != nil {
			return err
		}
	}
}

// stripVolatileKeys removes the top-level VolatileLogKeys fields from one
// JSON object line without re-marshalling (which would reorder keys):
// keys are re-quoted by encoding/json, values copied byte for byte. A
// line that is not exactly one JSON object is an error.
func stripVolatileKeys(line []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, errors.New("obstest: not an object")
	}
	out := append(make([]byte, 0, len(line)), '{')
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, _ := tok.(string)
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			return nil, err
		}
		if VolatileLogKeys[key] {
			continue
		}
		if len(out) > 1 {
			out = append(out, ',')
		}
		quoted, err := json.Marshal(key)
		if err != nil {
			return nil, err
		}
		out = append(out, quoted...)
		out = append(out, ':')
		out = append(out, val...)
	}
	if _, err := dec.Token(); err != nil { // the closing brace
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("obstest: trailing data after object")
	}
	return append(out, '}'), nil
}
