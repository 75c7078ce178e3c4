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
	counters, hists := s.names()
	for _, n := range counters {
		p := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, s.Counters[n]); err != nil {
			return err
		}
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
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", p, b, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			p, h.Count, p, h.Sum, p, h.Count); err != nil {
			return err
		}
	}
	return nil
}
