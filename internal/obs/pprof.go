package obs

import (
	"fmt"
	"io"
	"net/url"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The runtime profiles at /debug/pprof/, answered as net/http/pprof
// answers them, with one omission: a named profile with ?seconds=N (a
// delta profile) needs the standard library's internal profile parser,
// so it is refused with 400. Fetch two profiles and compare them with
// `go tool pprof -diff_base` instead.

const pprofPrefix = "/debug/pprof/"

// routePprof answers r when its path is under pprofPrefix, and reports
// whether it was.
func routePprof(w *response, r *request) bool {
	name, ok := strings.CutPrefix(r.path, pprofPrefix)
	if !ok {
		return false
	}
	w.set("X-Content-Type-Options", "nosniff")
	switch name {
	case "":
		pprofIndex(w)
	case "cmdline":
		w.text(strings.Join(os.Args, "\x00"))
	case "profile":
		sec, err := strconv.ParseInt(r.query.Get("seconds"), 10, 64)
		if sec <= 0 || err != nil {
			sec = 30
		}
		pprofStream(w, "profile", "CPU profiling", time.Duration(sec)*time.Second, pprof.StartCPUProfile, pprof.StopCPUProfile)
	case "trace":
		sec, err := strconv.ParseFloat(r.query.Get("seconds"), 64)
		if sec <= 0 || err != nil {
			sec = 1
		}
		pprofStream(w, "trace", "tracing", time.Duration(sec*float64(time.Second)), trace.Start, trace.Stop)
	case "symbol":
		pprofSymbol(w, r)
	default:
		pprofNamed(w, r, name)
	}
	return true
}

// pprofError answers status with txt, marked as pprof's own error.
func pprofError(w *response, status int, txt string) {
	w.error(status, txt)
	w.set("X-Go-Pprof", "1")
}

// pprofStream streams the file name that start writes, a CPU profile or
// an execution trace, for d or until the client hangs up, then stops it.
// what names the facility in a failure to start.
func pprofStream(w *response, name, what string, d time.Duration, start func(io.Writer) error, stop func()) {
	w.set("Content-Type", "application/octet-stream")
	w.set("Content-Disposition", fmt.Sprintf(`attachment; filename="%s"`, name))
	gone, ok := w.stream()
	if !ok {
		return
	}
	// start writes nothing before it succeeds, so a failure can still be
	// answered in full.
	if err := start(w); err != nil {
		pprofError(w, 500, fmt.Sprintf("Could not enable %s: %s", what, err))
		return
	}
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-gone:
		t.Stop()
	}
	stop()
}

// pprofSymbol maps the program counters a request lists, separated by
// '+', to function names. A GET lists them in its query, a POST in its
// body.
func pprofSymbol(w *response, r *request) {
	w.set("Content-Type", "text/plain; charset=utf-8")
	// pprof reads only whether the count is 0 (no symbols) or not.
	fmt.Fprintf(w, "num_symbols: 1\n")
	list := r.rawQuery
	if r.method == "POST" {
		list = string(r.body)
	}
	for _, word := range strings.Split(list, "+") {
		pc, _ := strconv.ParseUint(word, 0, 64)
		if pc == 0 {
			continue
		}
		if f := runtime.FuncForPC(uintptr(pc)); f != nil {
			fmt.Fprintf(w, "%#x %s\n", pc, f.Name())
		}
	}
}

// pprofNamed answers the runtime profile name: ?debug=N > 0 as text,
// binary otherwise, and ?gc=N > 0 collects garbage before a heap
// profile.
func pprofNamed(w *response, r *request, name string) {
	p := pprof.Lookup(name)
	if p == nil {
		pprofError(w, 404, "Unknown profile")
		return
	}
	if r.query.Get("seconds") != "" {
		pprofError(w, 400, `"seconds" on a named profile asks for a delta profile, which this server does not compute: fetch two profiles and compare them with go tool pprof -diff_base`)
		return
	}
	if gc, _ := strconv.Atoi(r.query.Get("gc")); name == "heap" && gc > 0 {
		runtime.GC()
	}
	debug, _ := strconv.Atoi(r.query.Get("debug"))
	if debug != 0 {
		w.set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.set("Content-Type", "application/octet-stream")
		w.set("Content-Disposition", fmt.Sprintf(`attachment; filename="%s"`, name))
	}
	p.WriteTo(w, debug)
}

// pprofDescriptions describes each profile on the index page.
var pprofDescriptions = map[string]string{
	"allocs":       "A sampling of all past memory allocations",
	"block":        "Stack traces that led to blocking on synchronization primitives",
	"cmdline":      "The command line invocation of the current program",
	"goroutine":    "Stack traces of all current goroutines. Use debug=2 as a query parameter to export in the same format as an unrecovered panic.",
	"heap":         "A sampling of memory allocations of live objects. You can specify the gc GET parameter to run GC before taking the heap sample.",
	"mutex":        "Stack traces of holders of contended mutexes",
	"profile":      "CPU profile. You can specify the duration in the seconds GET parameter. After you get the profile file, use the go tool pprof command to investigate the profile.",
	"symbol":       "Maps given program counters to function names. Counters can be specified in a GET raw query or POST body, multiple counters are separated by '+'.",
	"threadcreate": "Stack traces that led to the creation of new OS threads",
	"trace":        "A trace of execution of the current program. You can specify the duration in the seconds GET parameter. After you get the trace file, use the go tool trace command to investigate the trace.",
}

// htmlEscaper escapes text for an HTML page.
var htmlEscaper = strings.NewReplacer(`&`, "&amp;", `'`, "&#39;", `<`, "&lt;", `>`, "&gt;", `"`, "&#34;")

// pprofIndex answers the index page: every runtime profile with its
// count, and the streamed ones.
func pprofIndex(w *response) {
	type entry struct {
		name  string
		count int
	}
	var profiles []entry
	for _, p := range pprof.Profiles() {
		profiles = append(profiles, entry{p.Name(), p.Count()})
	}
	for _, name := range []string{"cmdline", "profile", "symbol", "trace"} {
		profiles = append(profiles, entry{name: name})
	}
	slices.SortFunc(profiles, func(a, b entry) int { return strings.Compare(a.name, b.name) })

	w.set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, `<html>
<head>
<title>/debug/pprof/</title>
<style>
.profile-name{
	display:inline-block;
	width:6rem;
}
</style>
</head>
<body>
/debug/pprof/
<br>
<p>Set debug=1 as a query parameter to export in legacy text format</p>
<br>
Types of profiles available:
<table>
<thead><td>Count</td><td>Profile</td></thead>
`)
	for _, p := range profiles {
		link := &url.URL{Path: p.name, RawQuery: "debug=1"}
		fmt.Fprintf(w, "<tr><td>%d</td><td><a href='%s'>%s</a></td></tr>\n", p.count, link, htmlEscaper.Replace(p.name))
	}
	io.WriteString(w, `</table>
<a href="goroutine?debug=2">full goroutine stack dump</a>
<br>
<p>
Profile Descriptions:
<ul>
`)
	for _, p := range profiles {
		fmt.Fprintf(w, "<li><div class=profile-name>%s: </div> %s</li>\n", htmlEscaper.Replace(p.name), htmlEscaper.Replace(pprofDescriptions[p.name]))
	}
	io.WriteString(w, `</ul>
</p>
</body>
</html>`)
}
