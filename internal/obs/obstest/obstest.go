// Package obstest holds test helpers shared by the tests of the packages
// that write campaign logs and metrics through obs: the log canonicalizer
// and the snapshot merge.
package obstest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"

	"witag/internal/obs"
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

// Merge combines snapshots from independent registries (per-trial replays,
// say): counters and histogram buckets sum, so the result is independent
// of argument order and grouping — Merge(a, Merge(b, c)) ==
// Merge(Merge(a, b), c) exactly, because every field is an int64.
// Histograms registered under the same name with different bucket layouts
// keep the first layout seen and fold the other's total into its overflow
// bucket.
func Merge(snaps ...obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]obs.HistogramSnapshot{},
		Volatile:   map[string]bool{},
	}
	for _, s := range snaps {
		for n, v := range s.Counters {
			out.Counters[n] += v
		}
		for n, h := range s.Histograms {
			acc, ok := out.Histograms[n]
			if !ok {
				out.Histograms[n] = obs.HistogramSnapshot{
					Bounds: append([]int64(nil), h.Bounds...),
					Counts: append([]int64(nil), h.Counts...),
					Sum:    h.Sum,
					Count:  h.Count,
				}
				continue
			}
			if len(acc.Counts) == len(h.Counts) {
				for i := range h.Counts {
					acc.Counts[i] += h.Counts[i]
				}
			} else if len(acc.Counts) > 0 {
				acc.Counts[len(acc.Counts)-1] += h.Count
			}
			acc.Sum += h.Sum
			acc.Count += h.Count
			out.Histograms[n] = acc
		}
		for n := range s.Volatile {
			out.Volatile[n] = true
		}
	}
	return out
}
