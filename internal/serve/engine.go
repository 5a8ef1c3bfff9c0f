// Package serve is the sharded multi-session serving engine: the
// production-shaped deployment of the paper's Fig. 1 system. Instead of one
// goroutine and one time.Ticker per connection, the engine runs N shard
// loops, each driven by a single clock that steps every session registered
// on the shard. A session carries one clip, or K clips multiplexed through
// one shared smoothing buffer (package mux's shared mode, on the wire).
// Sessions are assigned to shards by connection hash, and all of a
// session's per-step work happens on its shard goroutine, so sessions need
// no locks of their own.
//
// Per-session output is completely determined by the clips, the drop
// policy and the negotiated (B, R, D): shard assignment only decides
// *which* goroutine advances a session's private clock, so the byte stream
// a client sees is identical for any shard count (engine_test.go locks
// this down, mirroring the sweep engine's worker-count invariance).
//
// The same purity makes serving compute-once-serve-many (cohort.go).
// Negotiation always yields B = R·D, so the delay alone names a session's
// schedule: every session at one delay shares one precomputed plan and one
// pre-encoded byte stream, its hot state collapses to a cohort pointer and
// a step cursor held in shard-owned parallel arrays, and a shard tick over
// them is a contiguous walk that writes shared immutable buffers. There is
// one serving path; the plan is proven byte-identical to a netstream.Sender
// replay by golden test.
package serve

import (
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/drop"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Config parameterizes an Engine.
type Config struct {
	// Rate is R in payload bytes per model step. Required.
	Rate int
	// Shards is the number of shard loops (default GOMAXPROCS).
	Shards int
	// MaxSessions caps concurrently registered sessions across all shards
	// (0 = unlimited); Handle rejects connections beyond it.
	MaxSessions int
	// StepDuration is the wall-clock length of one model step.
	// Defaults to 40ms (25 frames/second).
	StepDuration time.Duration
	// MaxDelay caps the smoothing delay granted to a client, in steps.
	// Defaults to 64. Plans are cached per delay, so it also bounds the
	// engine's plan memory: at most MaxDelay plans, each one encoded copy
	// of the clips.
	MaxDelay int
	// Policy selects the drop policy (default drop.Greedy).
	Policy drop.Factory
	// OnSessionDone, if non-nil, is called from the shard goroutine after
	// a session ends (err is nil for a clean drain to End).
	OnSessionDone func(s SessionStats, err error)
	// Instrument, if non-nil, registers extra metrics (runtime stats,
	// admission counters) on the engine's obs.Builder before it freezes.
	Instrument func(b *obs.Builder)
}

// SessionStats summarizes one finished session.
type SessionStats struct {
	// Remote is the peer address, when known.
	Remote string
	// Steps is the number of model steps the session ran.
	Steps int
	// Dropped is the number of slices shed by the smoothing buffer.
	Dropped int
	// Elapsed is the wall-clock session duration from registration.
	Elapsed time.Duration
}

// writeTimeout bounds each batched wire flush so one dead client cannot
// stall its shard forever.
const writeTimeout = 30 * time.Second

// Engine serves its clips to many concurrent sessions over shard loops.
type Engine struct {
	cfg Config
	//smoothvet:frozen per-step offers with synthesized payloads, shared by all plan builds
	mux     *netstream.Muxer
	shards  []*shard
	seed    maphash.Seed
	cohorts []cohortEntry // indexed by negotiated delay, 1..MaxDelay

	met     *engineMetrics
	recs    []*obs.FlightRecorder
	sessSeq atomic.Uint64 // flight-recorder session ids, assigned at Handle

	active  atomic.Int64
	served  atomic.Int64
	closing atomic.Bool
	sessWG  sync.WaitGroup // live sessions
	loopWG  sync.WaitGroup // shard loops
	stop    sync.Once
}

// New builds an engine for the clip and starts its shard loops.
func New(clip *trace.Clip, weights trace.WeightMap, cfg Config) (*Engine, error) {
	return NewMux([]*trace.Clip{clip}, weights, cfg)
}

// NewMux builds an engine that serves every session all of the clips,
// multiplexed through one smoothing buffer of B = R·D, and starts its
// shard loops. Slices get session IDs in (arrival, clip) order and data
// messages carry the clip index as their substream tag; one clip serves
// exactly the bytes New does.
func NewMux(clips []*trace.Clip, weights trace.WeightMap, cfg Config) (*Engine, error) {
	e, err := newEngine(clips, weights, cfg)
	if err != nil {
		return nil, err
	}
	for _, sh := range e.shards {
		e.loopWG.Add(1)
		//smoothvet:transfer ownership of the shard moves to its loop goroutine
		go sh.run()
	}
	return e, nil
}

// newEngine builds the engine without starting the shard clocks; tests and
// benchmarks drive the shards manually via shard.step.
func newEngine(clips []*trace.Clip, weights trace.WeightMap, cfg Config) (*Engine, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("serve: rate %d", cfg.Rate)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.StepDuration <= 0 {
		cfg.StepDuration = 40 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 64
	}
	streams := make([]*stream.Stream, len(clips))
	for i, c := range clips {
		st, err := trace.WholeFrameStream(c, weights)
		if err != nil {
			return nil, err
		}
		streams[i] = st
	}
	// Payload bytes depend only on (session slice ID, size): synthesize
	// them once and share them across every plan build.
	mux, err := netstream.NewMuxer(streams, netstream.SynthPayload)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	e := &Engine{cfg: cfg, mux: mux, seed: maphash.MakeSeed()}
	e.cohorts = make([]cohortEntry, cfg.MaxDelay+1)
	e.met = newEngineMetrics(e, cfg.Shards, cfg.Instrument)
	e.recs = make([]*obs.FlightRecorder, cfg.Shards)
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.recs[i] = obs.NewFlightRecorder(0)
		e.shards[i] = &shard{eng: e, quit: make(chan struct{}), met: e.met.reg.Shard(i), rec: e.recs[i]}
	}
	return e, nil
}

// Rate returns the configured link rate in payload bytes per step.
func (e *Engine) Rate() int { return e.cfg.Rate }

// Shards returns the number of shard loops.
func (e *Engine) Shards() int { return len(e.shards) }

// ActiveSessions returns the number of sessions currently registered or
// holding a slot through their handshake.
func (e *Engine) ActiveSessions() int { return int(e.active.Load()) }

// ServedSessions returns the number of sessions finished since start.
func (e *Engine) ServedSessions() int { return int(e.served.Load()) }

// Handle performs the netstream handshake on the caller's goroutine (the
// Hello read blocks), registers the session on a shard chosen by connection
// hash, and returns; the shard clock drives the session to completion and
// closes the connection. On rejection (engine draining, session limit, bad
// handshake, unbuildable plan) the connection is closed and an error
// returned.
func (e *Engine) Handle(conn net.Conn) error {
	if e.closing.Load() {
		return e.reject(conn, errDraining)
	}
	// The slot is reserved before the blocking Hello read, so concurrent
	// handshakes cannot all pass the MaxSessions check.
	if !e.reserve() {
		return e.reject(conn, fmt.Errorf("serve: session limit %d reached", e.cfg.MaxSessions))
	}
	sh, row, err := e.handshake(conn)
	if err == nil {
		e.sessWG.Add(1)
		if sh.enqueue(row) {
			return nil
		}
		e.sessWG.Done()
		err = errDraining
	}
	e.active.Add(-1)
	return e.reject(conn, err)
}

// reserve takes one session slot, failing when MaxSessions are taken.
func (e *Engine) reserve() bool {
	max := int64(e.cfg.MaxSessions)
	for {
		n := e.active.Load()
		if max > 0 && n >= max {
			return false
		}
		if e.active.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// reject counts and closes a refused connection, passing err through.
func (e *Engine) reject(conn net.Conn, err error) error {
	e.met.reg.GlobalInc(e.met.cRejected)
	_ = conn.Close()
	return err
}

// handshake reads the client's Hello, answers with the negotiated Accept
// and resolves the session's cohort plan. It returns the row to register
// and the shard that owns it.
func (e *Engine) handshake(conn net.Conn) (*shard, cohortRow, error) {
	msg, err := netstream.ReadMsg(conn)
	if err != nil {
		return nil, cohortRow{}, fmt.Errorf("serve: reading hello: %w", err)
	}
	if msg.Hello == nil {
		return nil, cohortRow{}, fmt.Errorf("serve: expected hello, got %+v", msg)
	}
	delay, buffer := netstream.NegotiateSession(*msg.Hello, e.cfg.Rate, e.cfg.MaxDelay)
	if err := netstream.WriteAccept(conn, netstream.Accept{
		Rate:         uint32(e.cfg.Rate),
		Delay:        uint32(delay),
		ServerBuffer: uint32(buffer),
		StepMicros:   uint32(e.cfg.StepDuration / time.Microsecond),
	}); err != nil {
		return nil, cohortRow{}, fmt.Errorf("serve: writing accept: %w", err)
	}
	c, built, err := e.cohortFor(delay)
	if err != nil {
		return nil, cohortRow{}, fmt.Errorf("serve: building the plan for delay %d: %w", delay, err)
	}
	if built {
		e.met.reg.GlobalInc(e.met.cCohortMiss)
	} else {
		e.met.reg.GlobalInc(e.met.cCohortHits)
	}
	remote := conn.RemoteAddr().String()
	sh := e.shards[e.shardOf(remote)]
	// The deadline writer arms against the shard's tick clock, so the
	// shard must be fixed before the writer is built.
	w := &deadlineWriter{c: conn, d: writeTimeout, clk: &sh.clk}
	return sh, cohortRow{
		cohort: c, conn: conn, w: w, remote: remote, start: time.Now(), id: e.sessSeq.Add(1),
	}, nil
}

// shardOf picks the shard for a connection by hashing its remote address.
func (e *Engine) shardOf(remote string) int {
	var h maphash.Hash
	h.SetSeed(e.seed)
	_, _ = h.WriteString(remote) // never fails per hash.Hash contract
	return int(h.Sum64() % uint64(len(e.shards)))
}

// Drain stops admitting sessions and waits up to timeout for the in-flight
// ones to finish their streams. It reports whether everything completed.
func (e *Engine) Drain(timeout time.Duration) bool {
	e.closing.Store(true)
	done := make(chan struct{})
	go func() { e.sessWG.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Close stops the shard loops, aborting any session still in flight (its
// connection is closed mid-stream). Safe to call after Drain and more than
// once.
func (e *Engine) Close() {
	e.closing.Store(true)
	e.stop.Do(func() {
		for _, sh := range e.shards {
			close(sh.quit)
		}
	})
	e.loopWG.Wait()
}

// errAborted reports a session cut off by Close before its stream drained.
var errAborted = fmt.Errorf("serve: engine closed mid-stream")

// errDraining rejects a connection offered after Drain or Close began.
var errDraining = errors.New("serve: engine is draining")

// ---------------------------------------------------------------------------
// Shards.
// ---------------------------------------------------------------------------

// tickClock publishes a shard's current tick timestamp (UnixNano) to the
// deadline writers of its sessions, so arming a write deadline costs an
// atomic load instead of a time.Now call per session per flush.
type tickClock struct {
	nanos atomic.Int64
}

// cohortRow is the registration-time state of one session.
// Its hot fields (cohort pointer, cursor) move into the shard's parallel
// arrays on admit; the rest stays in the cold array, touched only at
// retirement.
type cohortRow struct {
	cohort *Cohort
	conn   net.Conn // nil in tests/benchmarks that drive a bare writer
	w      io.Writer
	remote string
	start  time.Time
	id     uint64 // flight-recorder session id
}

// cohortRows is the shard-owned struct-of-arrays state of the shard's
// sessions. A shard tick walks cursors/cohorts contiguously — no
// per-session pointer chase — and retires finished rows by swap-remove.
// The three slices are parallel: row i is (cohorts[i], cursors[i],
// cold[i]).
type cohortRows struct {
	cohorts []*Cohort
	cursors []int32
	cold    []cohortRow
}

// shard owns a set of sessions and the single clock that steps them. Only
// the registration queue is shared (guarded by mu); everything else runs on
// the shard goroutine.
//
//smoothvet:confined owned by the shard loop goroutine after New hands it off
type shard struct {
	eng  *Engine
	quit chan struct{} //smoothvet:shared closed by Engine.Close to stop the loop

	clk tickClock

	//smoothvet:shared registration queue, guarded by mu
	mu sync.Mutex
	//smoothvet:shared set under mu; checked by enqueue from acceptor goroutines
	draining bool
	//smoothvet:shared appended under mu by enqueue, drained by admit
	incoming []cohortRow

	rows cohortRows // registered sessions, struct-of-arrays

	// met and rec are this shard's obs slots and flight ring: recorded
	// into only by the shard goroutine, read elsewhere only through their
	// published snapshots.
	met *obs.ShardMetrics
	rec *obs.FlightRecorder
}

// enqueue hands a freshly handshaken session to the shard loop. It reports
// false if the shard has already shut down.
func (sh *shard) enqueue(r cohortRow) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.draining {
		return false
	}
	sh.incoming = append(sh.incoming, r)
	return true
}

// run is the shard loop: one ticker, one step for every session per tick.
func (sh *shard) run() {
	defer sh.eng.loopWG.Done()
	tk := time.NewTicker(sh.eng.cfg.StepDuration)
	defer tk.Stop()
	for {
		select {
		case <-sh.quit:
			sh.shutdown()
			return
		case now := <-tk.C:
			sh.step(now)
			// Step duration and snapshot publication happen outside the
			// noalloc step path: one wall-clock read and one O(metrics)
			// copy per tick, never per session.
			sh.met.Observe(sh.eng.met.hStepDur, time.Since(now).Microseconds())
			sh.met.Publish()
		}
	}
}

// admit moves newly registered sessions onto the shard goroutine.
func (sh *shard) admit() {
	sh.mu.Lock()
	inc := sh.incoming
	sh.incoming = nil
	sh.mu.Unlock()
	now := sh.clk.nanos.Load()
	for i := range inc {
		sh.met.Inc(sh.eng.met.cAdmitted)
		sh.rec.Record(now, obs.EvAdmit, inc[i].id, 0)
		sh.rec.Record(now, obs.EvCohortAssign, inc[i].id, int64(inc[i].cohort.Steps()))
		sh.addRow(inc[i])
	}
}

// addRow appends one session to the shard's parallel arrays at cursor 0.
func (sh *shard) addRow(r cohortRow) {
	sh.rows.cohorts = append(sh.rows.cohorts, r.cohort)
	sh.rows.cursors = append(sh.rows.cursors, 0)
	sh.rows.cold = append(sh.rows.cold, r)
}

// step advances every session on the shard by one model step, retiring the
// ones that finished or failed. now is the tick timestamp; it is published
// once to the shard's deadline writers, so a tick arms at most one write
// deadline per connection no matter how many flushes it performs.
//
//smoothvet:deterministic
//smoothvet:noalloc
func (sh *shard) step(now time.Time) {
	sh.clk.nanos.Store(now.UnixNano())
	sh.admit()
	sh.stepRows()
	sh.met.Set(sh.eng.met.gActive, uint64(len(sh.rows.cursors)))
}

// stepRows advances the cohort rows one model step: a contiguous walk over
// the parallel arrays, flushing each phase group — the run of sessions on
// the same cohort at the same cursor — from one shared pre-encoded buffer.
// Retirement is swap-remove: the last unprocessed row takes the freed slot
// and is processed in place, so every row advances exactly once per tick.
//
//smoothvet:deterministic
//smoothvet:noalloc
func (sh *shard) stepRows() {
	rows := &sh.rows
	i := 0
	for i < len(rows.cursors) {
		c := rows.cohorts[i]
		cur := rows.cursors[i]
		buf := c.stepBytes(cur)
		last := int(cur)+1 == c.Steps()
		// One shared buffer serves the whole phase group [i, j).
		j := i
		for j < len(rows.cursors) && rows.cohorts[j] == c && rows.cursors[j] == cur {
			if cur == 0 {
				sh.rec.Record(sh.clk.nanos.Load(), obs.EvFirstWrite, rows.cold[j].id, 0)
			}
			var err error
			if len(buf) > 0 {
				_, err = rows.cold[j].w.Write(buf)
			}
			if err != nil || last {
				sh.retireRow(j, cur, err)
				continue // the swapped-in row is processed at j
			}
			rows.cursors[j] = cur + 1
			j++
		}
		i = j
	}
}

// retireRow finishes the cohort session in slot j (err nil = clean drain
// to End) and swap-removes its row. It sits on the noalloc tick path, so
// Elapsed is derived from the shard's tick clock — stamped once per tick
// (and once by shutdown) — instead of re-reading the wall clock per
// retirement.
func (sh *shard) retireRow(j int, cur int32, err error) {
	rows := &sh.rows
	cold := &rows.cold[j]
	steps := int(cur)
	dropped := rows.cohorts[j].droppedThrough(cur)
	if err == nil {
		// Clean finish: the final step completed.
		steps = int(cur) + 1
		dropped = rows.cohorts[j].droppedThrough(cur + 1)
	}
	if cold.conn != nil {
		_ = cold.conn.Close()
	}
	sh.noteSessionEnd(cold.id, steps, err)
	e := sh.eng
	e.active.Add(-1)
	e.served.Add(1)
	e.sessWG.Done()
	if e.cfg.OnSessionDone != nil {
		e.cfg.OnSessionDone(SessionStats{
			Remote:  cold.remote,
			Steps:   steps,
			Dropped: dropped,
			Elapsed: time.Unix(0, sh.clk.nanos.Load()).Sub(cold.start),
		}, err)
	}
	n := len(rows.cursors) - 1
	rows.cohorts[j] = rows.cohorts[n]
	rows.cursors[j] = rows.cursors[n]
	rows.cold[j] = rows.cold[n]
	rows.cohorts[n] = nil
	rows.cold[n] = cohortRow{}
	rows.cohorts = rows.cohorts[:n]
	rows.cursors = rows.cursors[:n]
	rows.cold = rows.cold[:n]
}

// shutdown aborts every session still registered on the shard.
func (sh *shard) shutdown() {
	// Re-stamp the tick clock so retirements during drain report an
	// Elapsed that covers the time since the last tick.
	sh.clk.nanos.Store(time.Now().UnixNano())
	sh.mu.Lock()
	sh.draining = true
	inc := sh.incoming
	sh.incoming = nil
	sh.mu.Unlock()
	for i := range inc {
		sh.addRow(inc[i])
	}
	for n := len(sh.rows.cursors); n > 0; n = len(sh.rows.cursors) {
		sh.retireRow(n-1, sh.rows.cursors[n-1], errAborted)
	}
	sh.met.Set(sh.eng.met.gActive, 0)
	sh.met.Publish()
}

// deadlineWriter arms a write deadline before flushing so a stalled client
// errors out instead of blocking its whole shard. The deadline is derived
// from the shard's tick clock — stamped once per tick — and armed at most
// once per tick per connection, so a session flush costs neither a
// time.Now call nor a redundant SetWriteDeadline.
type deadlineWriter struct {
	c     net.Conn
	d     time.Duration
	clk   *tickClock
	armed int64 // tick stamp the current deadline was armed at
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	if now := w.clk.nanos.Load(); now != w.armed {
		if err := w.c.SetWriteDeadline(time.Unix(0, now).Add(w.d)); err != nil {
			return 0, err
		}
		w.armed = now
	}
	return w.c.Write(p)
}
