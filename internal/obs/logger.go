package obs

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Structured logging for campaigns: a thin log/slog handler that writes
// one JSON object per line (JSONL, the same framing as the trace files it
// sits beside). The handler is deliberately minimal so its behaviour is
// fully specified here:
//
//   - Field order is fixed — ts, level, msg, campaign (when set via
//     WithAttrs), then the record's attrs in call order — so two runs
//     logging the same things produce line-for-line comparable files.
//   - The only nondeterministic field is "ts" (wall clock). It is named
//     in obstest.VolatileLogKeys, and obstest.CanonicalizeLog strips
//     every such key, so the determinism suite can require canonicalized
//     logs to be byte-identical across worker counts while the raw file
//     still carries real timestamps for humans.
//   - Logging is a pure sink: nothing in the simulation reads a logger,
//     and the harness-level call sites run sequentially (per experiment,
//     per campaign), never per trial on worker goroutines — so enabling
//     a log file cannot perturb or reorder science output.
//
// The handler is safe for concurrent use; a single mutex serialises line
// writes (log volume is tens of lines per campaign, not a hot path).

// JSONLHandler is a deterministic slog.Handler writing JSONL to one
// writer. Construct with NewJSONLHandler.
type JSONLHandler struct {
	mu    *sync.Mutex
	w     *bufio.Writer
	level slog.Leveler
	attrs []slog.Attr // pre-bound via WithAttrs, already prefixed
	group string      // dotted group prefix from WithGroup
	now   func() time.Time
}

// NewJSONLHandler returns a handler writing records at or above level to
// w. Pass a *os.File for campaign logs; the handler flushes after every
// line so a crashed run keeps everything it logged.
func NewJSONLHandler(w io.Writer, level slog.Leveler) *JSONLHandler {
	if level == nil {
		level = slog.LevelInfo
	}
	return &JSONLHandler{
		mu:    &sync.Mutex{},
		w:     bufio.NewWriter(w),
		level: level,
		now:   time.Now,
	}
}

// NewLogger returns a slog.Logger over a fresh JSONL handler on w.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(NewJSONLHandler(w, level))
}

// Enabled implements slog.Handler.
func (h *JSONLHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= h.level.Level()
}

// Handle implements slog.Handler: one JSON line per record, fixed key
// order, flushed immediately.
func (h *JSONLHandler) Handle(_ context.Context, r slog.Record) error {
	buf := make([]byte, 0, 256)
	buf = append(buf, '{')
	buf = appendKey(buf, "ts")
	buf = appendJSONString(buf, h.now().UTC().Format(time.RFC3339Nano))
	buf = append(buf, ',')
	buf = appendKey(buf, "level")
	buf = appendJSONString(buf, r.Level.String())
	buf = append(buf, ',')
	buf = appendKey(buf, "msg")
	buf = appendJSONString(buf, r.Message)
	for _, a := range h.attrs {
		buf = appendAttr(buf, "", a)
	}
	r.Attrs(func(a slog.Attr) bool {
		buf = appendAttr(buf, h.group, a)
		return true
	})
	buf = append(buf, '}', '\n')

	h.mu.Lock()
	defer h.mu.Unlock()
	if _, err := h.w.Write(buf); err != nil {
		return err
	}
	return h.w.Flush()
}

// WithAttrs implements slog.Handler; the bound attrs render after msg on
// every subsequent record, in binding order.
func (h *JSONLHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	if len(attrs) == 0 {
		return h
	}
	h2 := *h
	h2.attrs = make([]slog.Attr, 0, len(h.attrs)+len(attrs))
	h2.attrs = append(h2.attrs, h.attrs...)
	for _, a := range attrs {
		if h.group != "" {
			a.Key = h.group + "." + a.Key
		}
		h2.attrs = append(h2.attrs, a)
	}
	return &h2
}

// WithGroup implements slog.Handler with a dotted-prefix flattening —
// group "xfer" turns attr "rounds" into key "xfer.rounds", keeping the
// line a single flat object like the trace events beside it.
func (h *JSONLHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	h2 := *h
	if h.group != "" {
		h2.group = h.group + "." + name
	} else {
		h2.group = name
	}
	return &h2
}

// appendJSONString appends s as a JSON string literal. Printable text
// renders exactly as strconv.Quote would; beyond that it follows JSON
// rather than Go syntax: control characters become \n, \r, \t or \u00XX,
// U+2028 and U+2029 are escaped for JavaScript readers, and each byte
// of invalid UTF-8 becomes \ufffd. Every result is valid JSON.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			switch {
			case c == '"' || c == '\\':
				buf = append(buf, '\\', c)
			case c == '\n':
				buf = append(buf, '\\', 'n')
			case c == '\r':
				buf = append(buf, '\\', 'r')
			case c == '\t':
				buf = append(buf, '\\', 't')
			case c < 0x20 || c == 0x7f:
				buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			default:
				buf = append(buf, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			buf = append(buf, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			buf = append(buf, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			buf = append(buf, s[i:i+size]...)
		}
		i += size
	}
	return append(buf, '"')
}

func appendKey(buf []byte, key string) []byte {
	buf = appendJSONString(buf, key)
	return append(buf, ':')
}

func appendAttr(buf []byte, prefix string, a slog.Attr) []byte {
	if a.Equal(slog.Attr{}) {
		return buf
	}
	key := a.Key
	if prefix != "" {
		key = prefix + "." + key
	}
	v := a.Value.Resolve()
	if v.Kind() == slog.KindGroup {
		for _, ga := range v.Group() {
			buf = appendAttr(buf, key, ga)
		}
		return buf
	}
	buf = append(buf, ',')
	buf = appendKey(buf, key)
	switch v.Kind() {
	case slog.KindInt64:
		buf = strconv.AppendInt(buf, v.Int64(), 10)
	case slog.KindUint64:
		buf = strconv.AppendUint(buf, v.Uint64(), 10)
	case slog.KindBool:
		buf = strconv.AppendBool(buf, v.Bool())
	case slog.KindFloat64:
		// %g is shortest-exact: the same float renders the same bytes on
		// every platform, keeping canonicalized logs diffable. JSON has
		// no NaN or infinity, so those render as strings.
		f := v.Float64()
		g := fmt.Sprintf("%g", f)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			buf = appendJSONString(buf, g)
		} else {
			buf = append(buf, g...)
		}
	case slog.KindDuration:
		buf = appendJSONString(buf, v.Duration().String())
	case slog.KindTime:
		buf = appendJSONString(buf, v.Time().UTC().Format(time.RFC3339Nano))
	default:
		buf = appendJSONString(buf, fmt.Sprint(v.Any()))
	}
	return buf
}
