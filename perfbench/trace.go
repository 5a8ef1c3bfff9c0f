package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// span is one timed call into a layer, recorded by the benchmark around
// the module's public entry points (the program itself is not traced).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's base
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	// Key joins spans of one session across layers: the client socket's
	// address as the serving side sees it ("idx:N" for loadgen sessions,
	// which expose only their wave index).
	Key string `json:"key,omitempty"`
	// ChildNs is child time folded into the span instead of stored as
	// spans: the serve.write calls of one session, which are sequential
	// and lie inside it.
	ChildNs int64 `json:"child_ns,omitempty"`
}

// tracer keeps spans and per-call histograms in memory while enabled and
// writes the spans out when the run ends.
type tracer struct {
	base time.Time
	on   atomic.Bool
	root atomic.Int64 // index of the current wave/pass span, -1 if none

	mu                 sync.Mutex
	spans              []span
	hists              map[string]*stats.LogHistogram // per-call latencies, µs
	conns              map[string]*connRec            // live serve conns by client address
	writes, writeBytes int64
}

// connRec accumulates one serve connection's writes. It is touched only
// by the serve shard goroutine that owns the session.
type connRec struct {
	writes, bytes, ns int64
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), hists: map[string]*stats.LogHistogram{}, conns: map[string]*connRec{}}
	t.root.Store(-1)
	return t
}

func (t *tracer) since(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

// add appends a span and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens a root-level span (a wave or a pass) and makes it the
// parent of later session spans; end closes it.
func (t *tracer) begin(name string) int {
	i := t.add(span{Name: name, Start: t.since(time.Now()), Parent: -1})
	t.root.Store(int64(i))
	return i
}

func (t *tracer) end(i int) {
	t.mu.Lock()
	t.spans[i].End = t.since(time.Now())
	t.mu.Unlock()
	t.root.Store(-1)
}

// observe records a call's latency in microseconds into the named
// histogram.
func (t *tracer) observe(name string, d time.Duration) {
	t.mu.Lock()
	h := t.hists[name]
	if h == nil {
		h = stats.NewLogHistogram(stats.DefaultLogHistSubBits)
		t.hists[name] = h
	}
	h.Add(int64(d / time.Microsecond))
	t.mu.Unlock()
}

// hist returns a copy of the named histogram (empty if never observed).
func (t *tracer) hist(name string) *stats.LogHistogram {
	out := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	t.mu.Lock()
	if h := t.hists[name]; h != nil {
		out.Merge(h)
	}
	t.mu.Unlock()
	return out
}

// call times fn as a span named name under the current root span.
func (t *tracer) call(name, key string, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.observe(name, end.Sub(start))
	t.add(span{Name: name, Start: t.since(start), End: t.since(end), Parent: int(t.root.Load()), Key: key})
	return err
}

// timedConn times every Write the serving engine makes on a connection.
type timedConn struct {
	net.Conn
	t   *tracer
	rec *connRec
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	d := time.Since(start)
	c.rec.writes++
	c.rec.bytes += int64(n)
	c.rec.ns += int64(d)
	c.t.observe("serve.write", d)
	return n, err
}

// wrapServe registers a serve connection under its client address and
// returns it wrapped for write timing.
func (t *tracer) wrapServe(c net.Conn, key string) net.Conn {
	rec := &connRec{}
	t.mu.Lock()
	t.conns[key] = rec
	t.mu.Unlock()
	return &timedConn{Conn: c, t: t, rec: rec}
}

// serveSessionDone closes the serve.session span of a finished session,
// folding its write time in as child time.
func (t *tracer) serveSessionDone(key string, elapsed time.Duration) {
	now := time.Now()
	t.mu.Lock()
	rec := t.conns[key]
	delete(t.conns, key)
	if rec != nil {
		t.writes += rec.writes
		t.writeBytes += rec.bytes
		t.spans = append(t.spans, span{
			Name: "serve.session", Start: t.since(now.Add(-elapsed)), End: t.since(now),
			Parent: int(t.root.Load()), Key: key, ChildNs: rec.ns,
		})
	}
	t.mu.Unlock()
}

// writeTotals returns the serve writes and bytes of finished sessions.
func (t *tracer) writeTotals() (writes, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writes, t.writeBytes
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it covered by its child spans and
// folded child time.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		covered := s.ChildNs + union(children[i], s.Start, s.End)
		self[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// union returns the length of the union of intervals clipped to [lo, hi].
func union(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans prints the self-time table and writes every span as one
// JSON line to <out>/<workload>-seed<seed>.jsonl.
func (t *tracer) writeSpans(o options, w io.Writer) error {
	self := t.selfTimes()
	fmt.Fprintf(w, "# self time by span (s): span minus child spans\n")
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(w, "self %-20s %12.6f s\n", name, self[name])
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]string{"context": runContext(o)}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "# wrote %d spans to %s\n", n, path)
	return nil
}
