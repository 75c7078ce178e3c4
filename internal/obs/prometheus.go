package obs

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for a snapshot.
// Instrument names use dotted namespaces internally ("core.rounds");
// the exporter rewrites them to legal Prometheus names
// ("witag_core_rounds"). Output is sorted by name, so two identical
// snapshots serialise to identical bytes.

const promPrefix = "witag_"

func promName(name string) string {
	var b strings.Builder
	b.WriteString(promPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus serialises the snapshot in Prometheus text format.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	return s.writePrometheus(w, "")
}

// WritePrometheusLabeled serialises the snapshot with one constant label
// attached to every sample — the form /campaigns/<id>/metrics serves, so
// a scraper collecting several campaigns can tell their series apart.
// The label value is escaped per the exposition format (backslash, quote
// and newline).
func (s Snapshot) WritePrometheusLabeled(w io.Writer, key, value string) error {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(value)
	return s.writePrometheus(w, promName(key)[len(promPrefix):]+`="`+esc+`"`)
}

// writePrometheus writes every sample, appending label (a pre-escaped
// `key="value"` pair, or empty) to each; histogram buckets compose it
// with their le label.
func (s Snapshot) writePrometheus(w io.Writer, label string) error {
	braced := ""
	if label != "" {
		braced = "{" + label + "}"
	}
	counters, hists := s.names()
	for _, n := range counters {
		p := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s%s %d\n", p, p, braced, s.Counters[n]); err != nil {
			return err
		}
	}
	lePrefix := ""
	if label != "" {
		lePrefix = label + ","
	}
	for _, n := range hists {
		h := s.Histograms[n]
		p := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", p); err != nil {
			return err
		}
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", p, lePrefix, b, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %d\n%s_count%s %d\n",
			p, lePrefix, h.Count, p, braced, h.Sum, p, braced, h.Count); err != nil {
			return err
		}
	}
	return nil
}
