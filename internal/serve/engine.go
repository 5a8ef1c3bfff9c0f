// Package serve is the sharded multi-session serving engine: the
// production-shaped deployment of the paper's Fig. 1 system. Instead of one
// goroutine and one timer per connection, the engine runs N shards,
// each a reactor core (internal/reactor) that ticks every StepDuration and
// steps every session registered on the shard. A session carries one clip,
// or K clips multiplexed through one shared smoothing buffer (package
// mux's shared mode, on the wire). Sessions are assigned to shards by
// connection hash, and all of a session's per-step work happens on its
// shard goroutine, so sessions need no locks of their own.
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
// pre-encoded byte stream, and its hot state collapses to a cohort pointer,
// a tick count and a byte offset into that stream. A tick writes what each
// session owes without blocking; a session whose socket is full parks on
// writability and is retired once its oldest unsent bytes are more than D
// steps old — the client would play past them, so they are lost. There is
// one serving path; the plan is proven byte-identical to a
// netstream.Sender replay by golden test.
package serve

import (
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/drop"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/reactor"
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

// Engine serves its clips to many concurrent sessions over shard loops.
type Engine struct {
	cfg Config
	//smoothvet:frozen per-step offers with synthesized payloads, shared by all plan builds
	mux     *netstream.Muxer
	shards  []*shard
	seed    maphash.Seed
	cohorts []cohortEntry // indexed by negotiated delay, 1..MaxDelay
	base    time.Time     // monotonic origin of the shards' stamps

	met     *engineMetrics
	recs    []*obs.FlightRecorder
	sessSeq atomic.Uint64 // flight-recorder session ids, assigned at Handle

	active   atomic.Int64
	served   atomic.Int64
	draining atomic.Bool    // Handle refuses sessions (Drain or Close began)
	closing  atomic.Bool    // the shard cores shut down (Close began)
	sessWG   sync.WaitGroup // live sessions
	loopWG   sync.WaitGroup // shard loops
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
	for i, sh := range e.shards {
		if err := sh.Open(&e.closing, e.base, sh.met, e.met.gActive, e.cfg.StepDuration); err != nil {
			for _, prev := range e.shards[:i] {
				prev.Close()
			}
			return nil, err
		}
	}
	for _, sh := range e.shards {
		e.loopWG.Add(1)
		//smoothvet:transfer ownership of the shard moves to its reactor goroutine
		go sh.run()
	}
	return e, nil
}

// newEngine builds the engine without opening the shard cores; tests and
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
	e := &Engine{cfg: cfg, mux: mux, seed: maphash.MakeSeed(), base: time.Now()}
	e.cohorts = make([]cohortEntry, cfg.MaxDelay+1)
	e.met = newEngineMetrics(e, cfg.Shards, cfg.Instrument)
	e.recs = make([]*obs.FlightRecorder, cfg.Shards)
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.recs[i] = obs.NewFlightRecorder(0)
		e.shards[i] = newShard(e, i)
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
// hash, and returns; the shard drives the session to completion and
// closes the connection. On rejection (engine draining, session limit, bad
// handshake, unbuildable plan) the connection is closed and an error
// returned.
func (e *Engine) Handle(conn net.Conn) error {
	if e.draining.Load() {
		return e.reject(conn, errDraining)
	}
	// The slot is reserved before the blocking Hello read, so concurrent
	// handshakes cannot all pass the MaxSessions check.
	if !e.reserve() {
		return e.reject(conn, fmt.Errorf("serve: session limit %d reached", e.cfg.MaxSessions))
	}
	sh, s, err := e.handshake(conn)
	if err == nil {
		e.sessWG.Add(1)
		if sh.Enqueue(s) {
			return nil
		}
		e.sessWG.Done()
		if s.shim {
			_ = syscall.Close(int(s.fd))
		}
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
// and resolves the session's cohort plan and socket. It returns the
// session to register and the shard that owns it.
func (e *Engine) handshake(conn net.Conn) (*shard, *session, error) {
	msg, err := netstream.ReadMsg(conn)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: reading hello: %w", err)
	}
	if msg.Hello == nil {
		return nil, nil, fmt.Errorf("serve: expected hello, got %+v", msg)
	}
	delay, buffer := netstream.NegotiateSession(*msg.Hello, e.cfg.Rate, e.cfg.MaxDelay)
	if err := netstream.WriteAccept(conn, netstream.Accept{
		Rate:         uint32(e.cfg.Rate),
		Delay:        uint32(delay),
		ServerBuffer: uint32(buffer),
		StepMicros:   uint32(e.cfg.StepDuration / time.Microsecond),
	}); err != nil {
		return nil, nil, fmt.Errorf("serve: writing accept: %w", err)
	}
	c, built, err := e.cohortFor(delay)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: building the plan for delay %d: %w", delay, err)
	}
	if built {
		e.met.reg.GlobalInc(e.met.cCohortMiss)
	} else {
		e.met.reg.GlobalInc(e.met.cCohortHits)
	}
	fd, shim, err := sessionFd(conn)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: session socket: %w", err)
	}
	remote := conn.RemoteAddr().String()
	return e.shards[e.shardOf(remote)], &session{cohort: c, fd: int32(fd), peer: &peer{
		conn: conn, shim: shim, remote: remote, start: time.Now(), id: e.sessSeq.Add(1),
	}}, nil
}

// sessionFd returns the socket fd the shard writes a session to. A conn
// without a socket fd of its own (net.Pipe, a wrapping conn) gets one end
// of a unix socketpair, and a goroutine copies the other end into conn:
// the shard then writes, parks and retires it exactly like a socket.
// Closing the shard's end lets the copier drain the rest into conn and
// close it. A conn that neither reads nor closes holds its copier until
// the engine fails the session and closes the conn too.
func sessionFd(conn net.Conn) (fd int, shim bool, err error) {
	if sc, ok := conn.(syscall.Conn); ok {
		fd, err := reactor.ConnFd(sc)
		return fd, false, err
	}
	fd, peer, err := reactor.SocketPair()
	if err != nil {
		return -1, false, err
	}
	f := os.NewFile(uintptr(peer), "serve-shim")
	go func() {
		_, _ = io.Copy(conn, f)
		_ = f.Close()
		_ = conn.Close()
	}()
	return fd, true, nil
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
	e.draining.Store(true)
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
	e.draining.Store(true)
	e.closing.Store(true)
	e.loopWG.Wait()
}

var (
	// errAborted reports a session cut off by Close before its stream
	// drained.
	errAborted = errors.New("serve: engine closed mid-stream")
	// errDraining rejects a connection offered after Drain or Close began.
	errDraining = errors.New("serve: engine is draining")
	// errLate retires a session whose client fell behind its playout
	// deadline: its oldest unsent bytes are more than D steps old.
	errLate = errors.New("serve: client fell behind its playout deadline")
	// errHangup retires a session whose socket reported an error or
	// hangup.
	errHangup = errors.New("serve: client connection closed or reset")
)

// ---------------------------------------------------------------------------
// Shards.
// ---------------------------------------------------------------------------

// session is one client's state between ticks: the shared plan, the
// number of steps released and the byte offset written, in a small
// object, so a tick over a dense shard streams through little memory. The
// cold state sits behind the embedded *peer.
type session struct {
	cohort *Cohort
	tick   int32 // ticks since admission: steps 0..tick-1 are owed
	sent   int32 // bytes of cohort.wire written to the socket
	fd     int32
	parked bool // socket full: waiting on one-shot writability
	reactor.Link
	*peer
}

// peer is a session's cold state, read at admission, first write and
// retirement only.
type peer struct {
	conn   net.Conn // nil in benchmarks that drive the shard without sockets
	shim   bool     // fd is a socketpair end the session owns (see sessionFd)
	remote string
	start  time.Time
	id     uint64 // flight-recorder session id
}

// shard owns a set of sessions: a reactor core ticking every StepDuration
// and one flight ring. The core drives it through the reactor.Handler and
// reactor.Ticker methods below.
//
//smoothvet:confined owned by the reactor goroutine after NewMux hands it off
type shard struct {
	reactor.Core[*session]
	eng *Engine

	// write is one non-blocking write(2) to a session's fd (writeFd);
	// socket-free benchmarks swap in a discard.
	write func(fd int, p []byte) (int, error)

	// met and rec are this shard's obs slots and flight ring: recorded
	// into only by the reactor goroutine, read elsewhere only through
	// their published snapshots.
	met *obs.ShardMetrics
	rec *obs.FlightRecorder
}

// newShard builds shard idx without opening its core; NewMux opens it.
func newShard(e *Engine, idx int) *shard {
	return &shard{eng: e, write: writeFd, met: e.met.reg.Shard(idx), rec: e.recs[idx]}
}

// writeFd writes p to a non-blocking fd once, retrying only EINTR. It
// reports no negative counts: a failed write wrote 0 bytes.
func writeFd(fd int, p []byte) (int, error) {
	for {
		n, err := syscall.Write(fd, p)
		if err != syscall.EINTR {
			return max(n, 0), err
		}
	}
}

// run converts the shard to its reactor handler once and runs the core.
func (sh *shard) run() {
	defer sh.eng.loopWG.Done()
	sh.Run(sh)
}

// Admit routes a handshaken session's socket. It asks for no events: a
// tick writes the session unasked, and epoll reports errors and hangups
// regardless. Writability is requested only while parked.
func (sh *shard) Admit(s *session, now int64) bool {
	if err := sh.Add(int(s.fd), s, 0); err != nil {
		sh.retire(s, err, now)
		return false
	}
	sh.met.Inc(sh.eng.met.cAdmitted)
	sh.rec.Record(now, obs.EvAdmit, s.id, 0)
	sh.rec.Record(now, obs.EvCohortAssign, s.id, int64(s.cohort.Steps()))
	return true
}

// Ready resumes a parked session whose socket drained, or retires one
// whose socket failed.
func (sh *shard) Ready(s *session, fd int, events uint32, now int64) {
	if events&(reactor.Err|reactor.Hup) != 0 {
		sh.retire(s, errHangup, now)
		return
	}
	s.parked = false
	p := s.owed()
	n, err := sh.write(fd, p)
	s.sent += int32(n)
	_ = sh.settle(s, n < len(p), err, now)
}

// Sweep has nothing to time out: lateness is judged on every tick.
func (sh *shard) Sweep(*session, int64) {}

// Abort fails a live or queued session at engine close.
func (sh *shard) Abort(s *session, now int64) { sh.retire(s, errAborted, now) }

// Tick runs one model step of every session (reactor.Ticker). A tick
// that starts a full step or more behind schedule counts as missed; it
// still runs, so sessions keep pace with the schedule (catch-up). The
// step duration is timed outside the noalloc step path: one clock read
// per tick, never per session.
func (sh *shard) Tick(now, late int64) {
	m := sh.eng.met
	sh.met.Observe(m.hTickLate, late/int64(time.Microsecond))
	if late >= int64(sh.eng.cfg.StepDuration) {
		sh.met.Inc(m.cMissedTicks)
	}
	sh.step(now)
	sh.met.Observe(m.hStepDur, (sh.Now()-now)/int64(time.Microsecond))
}

// step advances every session on the shard by one model step: each one
// is owed one more step of its plan. A session that is not parked writes
// what it owes without blocking; a parked one only ages (see overdue). A
// retirement swaps the list's last session into the freed slot, which is
// processed next, so every session advances exactly once per tick. The
// common case — a whole write short of End — costs one call, the write.
//
//smoothvet:deterministic
//smoothvet:noalloc
func (sh *shard) step(now int64) {
	live := sh.Sessions()
	for i := 0; i < len(live); {
		s := live[i]
		if s.tick == 0 {
			sh.rec.Record(now, obs.EvFirstWrite, s.id, 0)
		}
		s.tick++
		ok := true
		if !s.parked {
			p := s.owed()
			n, err := 0, error(nil)
			if len(p) > 0 {
				n, err = sh.write(int(s.fd), p)
				s.sent += int32(n)
			}
			// A whole write short of End needs nothing more.
			ok = n == len(p) && err == nil && int(s.sent) < len(s.cohort.wire) ||
				sh.settle(s, n < len(p), err, now)
		} else if s.overdue() {
			sh.retire(s, errLate, now)
			ok = false
		}
		if ok {
			i++
		} else {
			live = sh.Sessions()
		}
	}
}

// owed returns the bytes s owes: its plan's wire from sent to the end of
// its last released step. The result aliases the cohort's immutable
// buffer; callers must not mutate it.
//
//smoothvet:aliased
//smoothvet:noalloc
func (s *session) owed() []byte {
	c := s.cohort
	return c.wire[s.sent:c.off[min(s.tick, int32(c.Steps()))]]
}

// overdue reports whether a parked session's oldest unsent byte belongs
// to a step more than D steps back: the client plays that step's data by
// now, and late data is lost.
//
//smoothvet:noalloc
func (s *session) overdue() bool {
	c := s.cohort
	old := s.tick - 1 - c.delay
	return old > 0 && s.sent < c.off[min(old, int32(c.Steps()))]
}

// settle finishes a write of the owed bytes (short reports a partial
// one): a failure retires s, a short write parks it on one-shot
// writability (Ready resumes it from its offset; no bytes are copied),
// and a session that has written its whole wire, End included, retires
// cleanly. It reports whether s is still live.
//
//smoothvet:noalloc
func (sh *shard) settle(s *session, short bool, err error, now int64) bool {
	if err != nil {
		if en, ok := err.(syscall.Errno); !ok || en != syscall.EAGAIN {
			sh.retire(s, err, now)
			return false
		}
	}
	if short {
		return sh.park(s, now)
	}
	if int(s.sent) == len(s.cohort.wire) {
		sh.retire(s, nil, now)
		return false
	}
	return true
}

// park waits for a full socket to drain: one-shot writability, delivered
// to Ready. It reports whether s is still live.
func (sh *shard) park(s *session, now int64) bool {
	if err := sh.Mod(int(s.fd), reactor.Out|reactor.OneShot); err != nil {
		sh.retire(s, err, now)
		return false
	}
	s.parked = true
	sh.rec.Record(now, obs.EvStall, s.id, int64(s.tick))
	return true
}

// retire finishes s (err nil = clean drain to End): it unroutes and
// closes the socket, records the end and reports it to OnSessionDone. It
// sits downstream of the noalloc tick path, so Elapsed is derived from
// the stamp now instead of re-reading the wall clock.
func (sh *shard) retire(s *session, err error, now int64) {
	if s.fd >= 0 {
		_ = sh.Del(int(s.fd), s)
	}
	sh.Remove(s)
	switch {
	case s.shim:
		_ = syscall.Close(int(s.fd))
		if err != nil {
			_ = s.conn.Close() // the client gets nothing past a failure
		}
	case s.conn != nil:
		_ = s.conn.Close()
	}
	steps := int(min(s.tick, int32(s.cohort.Steps())))
	sh.noteSessionEnd(s, steps, err, now)
	e := sh.eng
	e.active.Add(-1)
	e.served.Add(1)
	e.sessWG.Done()
	if e.cfg.OnSessionDone != nil {
		e.cfg.OnSessionDone(SessionStats{
			Remote:  s.remote,
			Steps:   steps,
			Dropped: s.cohort.droppedThrough(int32(steps)),
			Elapsed: e.base.Add(time.Duration(now)).Sub(s.start),
		}, err)
	}
}
