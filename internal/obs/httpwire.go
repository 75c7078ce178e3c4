package obs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// The live surface speaks just enough HTTP/1.1 to answer its own routes:
// one request per connection, its head capped at maxHead, answered with
// Connection: close. Buffered answers carry Content-Length; a streamed
// one (/events, a CPU profile, an execution trace) ends when the
// connection closes. Keeping net/http out keeps its server, TLS and
// HTTP/2 stack out of every binary that links this package.

const (
	// maxHead caps a request's line and headers together; a longer head
	// is answered 431.
	maxHead = 8 << 10
	// maxSymbolBody caps the one request body the surface reads: the
	// program counters a POST to symbolPath asks about.
	maxSymbolBody = 1 << 20
	symbolPath    = "/debug/pprof/symbol"
	// headerTimeout bounds the read of a request, head and body.
	headerTimeout = 5 * time.Second
	// lingerTimeout bounds the drain of a refused request's unread
	// input, which keeps the close from resetting the connection before
	// the client reads the refusal.
	lingerTimeout = 500 * time.Millisecond
)

// request is the part of an HTTP request the routes read.
type request struct {
	method   string
	path     string // decoded, as url.URL.Path
	rawQuery string
	query    url.Values
	body     []byte // a symbol POST's body; nil otherwise
}

// statusError is a request refused before routing: the status it is
// answered with, the reason, and for a 405 the methods its path allows.
type statusError struct {
	status int
	msg    string
	allow  string
}

func (e *statusError) Error() string { return e.msg }

func badRequest(msg string) error { return &statusError{status: 400, msg: msg} }

// readRequest reads one request from r: its head, at most maxHead bytes,
// and a symbol POST's body, at most maxSymbolBody bytes more. A
// *statusError is a request to refuse with that status; any other error
// is a connection to close unanswered: one that sent nothing, or timed
// out.
func readRequest(r io.Reader) (*request, error) {
	lr := &io.LimitedReader{R: r, N: maxHead}
	br := bufio.NewReaderSize(lr, maxHead)
	line, err := readLine(br, lr)
	if err != nil {
		return nil, err
	}
	method, rest, ok := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok || !ok2 || !isToken(method) {
		return nil, badRequest("malformed request line")
	}
	switch {
	case proto == "HTTP/1.1" || proto == "HTTP/1.0":
	case len(proto) == len("HTTP/1.1") && strings.HasPrefix(proto, "HTTP/") && isDigit(proto[5]) && proto[6] == '.' && isDigit(proto[7]):
		return nil, &statusError{status: 505, msg: "HTTP version not supported"}
	default:
		return nil, badRequest("malformed HTTP version")
	}
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return nil, badRequest("malformed request target")
	}
	length, chunked := int64(-1), false
	for {
		line, err := readLine(br, lr)
		if err != nil {
			return nil, err
		}
		if line == "" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		value = strings.Trim(value, " \t")
		if !ok || !isToken(name) || !isFieldValue(value) {
			return nil, badRequest("malformed header line")
		}
		switch {
		case strings.EqualFold(name, "Content-Length"):
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil || n < 0 || (length >= 0 && n != length) {
				return nil, badRequest("bad Content-Length")
			}
			length = n
		case strings.EqualFold(name, "Transfer-Encoding"):
			chunked = true
		}
	}

	req := &request{method: method, path: u.Path, rawQuery: u.RawQuery, query: u.Query()}
	if req.path == "" {
		req.path = "/" // an absolute-form target with no path
	}
	symbolPost := method == "POST" && req.path == symbolPath
	switch {
	case method != "GET" && method != "HEAD" && !symbolPost:
		allow := "GET, HEAD"
		if req.path == symbolPath {
			allow = "GET, HEAD, POST"
		}
		return nil, &statusError{status: 405, msg: "method not allowed", allow: allow}
	case !symbolPost && (chunked || length > 0):
		return nil, badRequest("request bodies are not accepted")
	case chunked:
		return nil, &statusError{status: 411, msg: "a symbol request body needs Content-Length"}
	case length > maxSymbolBody:
		return nil, &statusError{status: 413, msg: fmt.Sprintf("a symbol request body is limited to %d bytes", maxSymbolBody)}
	case length > 0:
		// What the head's reads buffered counts towards the body; read
		// only the rest from r. The body grows as it arrives, not to the
		// length it claims.
		lr.N = max(length-int64(br.Buffered()), 0)
		if req.body, err = io.ReadAll(io.LimitReader(br, length)); err != nil {
			return nil, err
		}
		if int64(len(req.body)) < length {
			return nil, badRequest("truncated request body")
		}
	}
	return req, nil
}

// readLine reads one head line without its LF or CRLF. A head that
// outgrows maxHead is refused 431, and one the client ends mid-line is
// refused 400; a connection that ends before its first byte returns
// io.EOF, to close unanswered.
func readLine(br *bufio.Reader, lr *io.LimitedReader) (string, error) {
	line, err := br.ReadSlice('\n')
	switch {
	case err == nil:
		return string(bytes.TrimSuffix(line[:len(line)-1], []byte("\r"))), nil
	case lr.N == 0:
		return "", &statusError{status: 431, msg: fmt.Sprintf("request head is limited to %d bytes", maxHead)}
	case errors.Is(err, io.EOF) && lr.N < maxHead:
		return "", badRequest("truncated request head")
	}
	return "", err
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isToken reports whether s is an RFC 9110 token: a method or a header
// name.
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(isDigit(c) || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return true
}

// isFieldValue reports whether s holds no control byte but tab.
func isFieldValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < ' ' && c != '\t') || c == 0x7f {
			return false
		}
	}
	return true
}

// response is one answer under construction. A route sets its status and
// headers and writes its body, which is buffered and sent with
// Content-Length once the route returns. A streaming route calls stream
// first; from then on its writes go straight to the connection, the head
// ahead of the first, and the body ends when the connection closes.
type response struct {
	conn      net.Conn
	head      bool // a HEAD request: the head alone is sent
	status    int
	header    []string // "Name: value" lines, in the order first set
	body      bytes.Buffer
	streaming bool
	sent      bool          // the head went out
	gone      chan struct{} // closed once a streaming route's client hangs up
}

// set sets the header name to value, replacing an earlier value.
func (w *response) set(name, value string) {
	prefix := name + ": "
	for i, h := range w.header {
		if strings.HasPrefix(h, prefix) {
			w.header[i] = prefix + value
			return
		}
	}
	w.header = append(w.header, prefix+value)
}

// text answers s as plain text.
func (w *response) text(s string) {
	w.set("Content-Type", "text/plain; charset=utf-8")
	w.body.WriteString(s)
}

// error answers status with msg as a plain-text body, discarding the
// headers and body set so far.
func (w *response) error(status int, msg string) {
	w.status, w.streaming, w.header = status, false, w.header[:0]
	w.body.Reset()
	w.set("Content-Type", "text/plain; charset=utf-8")
	w.set("X-Content-Type-Options", "nosniff")
	w.body.WriteString(msg + "\n")
}

// stream switches w to streaming. It returns false for a HEAD request,
// whose head is sent when the route returns; otherwise it returns a
// channel that closes once the client hangs up or the server closes the
// connection. The request has been read whole, so a read on the
// connection returns only then.
func (w *response) stream() (<-chan struct{}, bool) {
	w.streaming = true
	if w.head {
		return nil, false
	}
	w.gone = make(chan struct{})
	w.conn.SetReadDeadline(time.Time{})
	go func() {
		defer close(w.gone)
		var buf [64]byte
		for {
			if _, err := w.conn.Read(buf[:]); err != nil {
				return
			}
		}
	}()
	return w.gone, true
}

// Write buffers p, or sends it when w streams.
func (w *response) Write(p []byte) (int, error) {
	if !w.streaming {
		return w.body.Write(p)
	}
	if !w.sent {
		if _, err := w.conn.Write(w.headBytes(-1)); err != nil {
			return 0, err
		}
	}
	return w.conn.Write(p)
}

// headBytes marks the head sent and renders it, with Content-Length when
// length is not negative.
func (w *response) headBytes(length int) []byte {
	w.sent = true
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", w.status, statusText(w.status))
	for _, h := range w.header {
		b.WriteString(h + "\r\n")
	}
	if length >= 0 {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", length)
	}
	b.WriteString("Connection: close\r\n\r\n")
	return b.Bytes()
}

// finish sends what the route left unsent: a buffered answer, or a
// streaming route's head when it wrote no body.
func (w *response) finish() error {
	if w.sent {
		return nil
	}
	if w.streaming {
		_, err := w.conn.Write(w.headBytes(-1))
		return err
	}
	bufs := net.Buffers{w.headBytes(w.body.Len())}
	if !w.head {
		bufs = append(bufs, w.body.Bytes())
	}
	_, err := bufs.WriteTo(w.conn)
	return err
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 411:
		return "Length Required"
	case 413:
		return "Request Entity Too Large"
	case 431:
		return "Request Header Fields Too Large"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	case 505:
		return "HTTP Version Not Supported"
	}
	return "Status " + strconv.Itoa(code)
}
