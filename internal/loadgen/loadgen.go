// Package loadgen is the sharded client engine: the load-generation dual
// of internal/serve. Where the serving engine runs N shard clocks each
// stepping many sessions' smoothing buffers, loadgen runs N shard
// *reactors*, each draining the sockets of many client sessions from one
// epoll set: a session costs one fd, one ~300-byte struct and a sliding
// receive window (core.RecvWindow) — no goroutine, no time.Ticker, no
// per-session decoder, and no unbounded lag slice — so one smoothload
// process can drive 100k end-to-end sessions.
//
// # Architecture
//
//   - Dial tier: a bounded pool of dialer goroutines performs the TCP
//     dial and the Hello/Accept handshake (the only blocking reads in the
//     engine), records dial/handshake stage timings, then hands the
//     connection to a shard chosen by session index.
//   - Shard reactors: each shard embeds a reactor.Core (internal/reactor)
//     whose epoll set wakes when any of its sessions' sockets turn
//     readable. A wake stamps one monotonic clock reading (measured from
//     a single engine-wide monotonic base), drains each ready socket into
//     a shard-owned scratch buffer with non-blocking reads, and
//     parses complete messages through one scratch-reusing
//     netstream.Decoder per shard. The old generator's per-session
//     goroutines took per-message wall-clock readings that skewed under
//     scheduler load; here every message drained in one wake shares the
//     wake's stamp, so reported step lag measures the server (plus a
//     bounded drain time), not the generator.
//   - Receivers: per-session playout accounting uses core.RecvWindow, the
//     sliding-window form of the simulator's dense client arrays; played,
//     incomplete and late-byte accounting is the same window
//     netstream.Receive plays through.
//   - Statistics: step lags and stage timings stream into fixed-footprint
//     log-bucketed histograms (stats.LogHistogram, one per shard, merged
//     after the run) with a documented <= 1/32 relative quantile error —
//     memory does not grow with messages or sessions.
//
// # Lag semantics
//
// Step lag follows cmd/smoothload's original definition: a session
// anchors a clock at its first data message and records how far behind
// the ideal pacing schedule (anchor + SendStep·step) each message
// arrives. The seed rebased each session's lags by the whole-session
// minimum after the fact, which requires keeping every lag; with
// streaming histograms the engine instead refines the anchor over the
// first anchorWindow (32) messages — lags are buffered in a fixed array,
// rebased by their minimum, then recorded — and later messages record
// clamped at >= 0. Sessions that fail mid-stream contribute the lags they
// measured before failing (the seed dropped them with the session); dial
// and handshake failures contribute nothing.
//
// The engine requires Linux (epoll); New returns an error elsewhere.
package loadgen

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/reactor"
	"repro/internal/stats"
)

// Failure stages, in the order they can occur in a session's life. The
// values match cmd/smoothload's original report vocabulary.
const (
	StageDial      = "dial"
	StageHandshake = "handshake"
	StageMidStream = "mid-stream"
)

// anchorWindow is the number of leading messages buffered to refine a
// session's lag anchor (see the package comment's lag semantics).
const anchorWindow = 32

// reorderSlack widens a session's receive window beyond its smoothing
// delay; TCP delivers in order, so this only covers frames the server
// legitimately holds past their arrival step.
const reorderSlack = 8

// Config parameterizes an Engine.
type Config struct {
	// Addrs are the server addresses; sessions stripe across them
	// round-robin by session index. More than one matters beyond ~28k
	// concurrent sessions, where a single (src IP, dst IP, dst port)
	// tuple exhausts the ephemeral port range. Required.
	Addrs []string
	// Shards is the number of reactor shards (default GOMAXPROCS).
	Shards int
	// Buffer is the client buffer advertised in the Hello, in bytes
	// (0 = unlimited).
	Buffer int
	// Delay is the desired smoothing delay advertised in the Hello, in
	// steps.
	Delay int
	// Dialers bounds concurrent dial+handshake workers (default 64).
	Dialers int
	// DialTimeout bounds one TCP dial (default 10s).
	DialTimeout time.Duration
	// HandshakeTimeout bounds the Hello/Accept exchange (default 10s).
	HandshakeTimeout time.Duration
	// IdleTimeout retires a session that has received no bytes for this
	// long as a mid-stream failure (default 30s; negative disables).
	IdleTimeout time.Duration
	// Digest, when set, folds every decoded data message's
	// (slice, step, offset, length) into a per-session FNV-1a digest,
	// reported in SessionStats — the shard-count invariance tests compare
	// these across engines.
	Digest bool
	// OnSessionDone, if non-nil, is called once per session as it
	// finishes, from a dialer goroutine (dial/handshake failures) or a
	// shard goroutine; it may be called concurrently.
	OnSessionDone func(SessionStats)
	// Instrument, if non-nil, registers extra metrics (runtime stats) on
	// the generator's obs.Builder before it freezes.
	Instrument func(b *obs.Builder)
}

// SessionStats summarizes one finished client session.
type SessionStats struct {
	// Index is the session's index within its Run wave.
	Index int
	// Stage is "" for a completed session, else the failure stage (one
	// of StageDial, StageHandshake, StageMidStream).
	Stage string
	// Err is nil for a completed session.
	Err error
	// Steps is the number of model steps observed (max send step + 1).
	Steps int
	// Bytes is the payload bytes received, including late ones.
	Bytes int64
	// Played and Incomplete count slices that met / missed their playout
	// deadline; LateBytes are bytes that arrived after their frame
	// resolved; MaxBuffer is the peak receive-buffer occupancy.
	Played, Incomplete, LateBytes, MaxBuffer int
	// Digest is the FNV-1a fold of the decoded message sequence when
	// Config.Digest is set.
	Digest uint64
	// Elapsed is the wall-clock session duration from dial start.
	Elapsed time.Duration
}

// Report aggregates one Run wave.
type Report struct {
	// Sessions = Completed + Failed; the failure counts split by stage.
	Sessions, Completed, Failed                  int
	DialFailed, HandshakeFailed, MidStreamFailed int
	// Bytes and Messages cover completed sessions (the seed report's
	// throughput convention).
	Bytes    int64
	Messages int64
	// Loss accounting over completed sessions.
	Played, Incomplete, MaxIncomplete, LateBytes int
	// Lag is the step-lag distribution in microseconds across all
	// streamed messages; Dial and Handshake are stage-timing
	// distributions in microseconds over successful stages.
	Lag, Dial, Handshake *stats.LogHistogram
	// Elapsed is the wall-clock duration of the wave.
	Elapsed time.Duration
}

// Engine drives waves of client sessions against a serving tier.
type Engine struct {
	cfg  Config
	base time.Time // engine-wide monotonic base for all shard clocks

	shards []*shard
	met    *loadMetrics
	recs   []*obs.FlightRecorder

	mu        sync.Mutex // guards the dial-side tallies and histograms
	dialHist  *stats.LogHistogram
	hsHist    *stats.LogHistogram
	dialFails int
	hsFails   int

	running   atomic.Bool
	closing   atomic.Bool
	remaining atomic.Int64
	done      chan struct{}
	loopWG    sync.WaitGroup
}

// New validates the config and starts the shard reactors.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("loadgen: no server addresses")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Dialers <= 0 {
		cfg.Dialers = 64
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	e := &Engine{
		cfg:      cfg,
		base:     time.Now(),
		dialHist: stats.NewLogHistogram(stats.DefaultLogHistSubBits),
		hsHist:   stats.NewLogHistogram(stats.DefaultLogHistSubBits),
	}
	e.met = newLoadMetrics(cfg.Shards, cfg.Instrument)
	e.recs = make([]*obs.FlightRecorder, cfg.Shards)
	for i := range e.recs {
		e.recs[i] = obs.NewFlightRecorder(0)
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		sh, err := newShard(e, i)
		if err != nil {
			for _, prev := range e.shards[:i] {
				prev.Close()
			}
			return nil, err
		}
		e.shards[i] = sh
	}
	for _, sh := range e.shards {
		e.loopWG.Add(1)
		//smoothvet:transfer ownership of the shard moves to its reactor goroutine
		go sh.run()
	}
	return e, nil
}

// monotonic returns nanoseconds since the engine's base on the monotonic
// clock; every shard stamp and lag anchor lives on this axis, so wall
// clock jumps cannot skew reported lag.
func (e *Engine) monotonic() int64 { return int64(time.Since(e.base)) }

// Run drives one wave of n sessions to completion and reports the
// aggregate. Run may be called repeatedly (ramp waves) but not
// concurrently.
func (e *Engine) Run(n int) (Report, error) {
	if n < 1 {
		return Report{}, fmt.Errorf("loadgen: wave size %d", n)
	}
	if e.closing.Load() {
		return Report{}, fmt.Errorf("loadgen: engine is closed")
	}
	if !e.running.CompareAndSwap(false, true) {
		return Report{}, fmt.Errorf("loadgen: Run already in flight")
	}
	defer e.running.Store(false)

	// Previous waves have fully drained (Run waited on done), so the
	// shard goroutines are quiescent on the stats: reset everything.
	for _, sh := range e.shards {
		sh.resetStats()
	}
	e.mu.Lock()
	e.dialHist.Reset()
	e.hsHist.Reset()
	e.dialFails, e.hsFails = 0, 0
	e.mu.Unlock()

	e.remaining.Store(int64(n))
	e.done = make(chan struct{})
	start := time.Now()

	var next atomic.Int64
	dialers := e.cfg.Dialers
	if dialers > n {
		dialers = n
	}
	var dialWG sync.WaitGroup
	for d := 0; d < dialers; d++ {
		dialWG.Add(1)
		go func() {
			defer dialWG.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= n {
					return
				}
				if e.closing.Load() {
					// Still count the session down, or Run would wait on
					// waves that will never be dialed.
					e.failSetup(idx, StageDial, errEngineClosed, time.Now())
					continue
				}
				e.dialOne(idx)
			}
		}()
	}
	dialWG.Wait()
	<-e.done
	elapsed := time.Since(start)

	// All sessions retired: the shard goroutines no longer touch their
	// stats (and the atomic countdown ordered their last writes before
	// our read), so merging without locks is sound.
	rep := Report{
		Sessions: n,
		Lag:      stats.NewLogHistogram(stats.DefaultLogHistSubBits),
		Elapsed:  elapsed,
	}
	for _, sh := range e.shards {
		rep.Lag.Merge(sh.lag)
		rep.Completed += sh.tally.completed
		rep.MidStreamFailed += sh.tally.midStreamFailed
		rep.Bytes += sh.tally.bytes
		rep.Messages += sh.tally.msgs
		rep.Played += sh.tally.played
		rep.Incomplete += sh.tally.incomplete
		rep.LateBytes += sh.tally.lateBytes
		if sh.tally.maxIncomplete > rep.MaxIncomplete {
			rep.MaxIncomplete = sh.tally.maxIncomplete
		}
	}
	e.mu.Lock()
	rep.DialFailed = e.dialFails
	rep.HandshakeFailed = e.hsFails
	dial := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	dial.Merge(e.dialHist)
	hs := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	hs.Merge(e.hsHist)
	e.mu.Unlock()
	rep.Dial, rep.Handshake = dial, hs
	rep.Failed = rep.DialFailed + rep.HandshakeFailed + rep.MidStreamFailed
	return rep, nil
}

// Close stops the shard reactors, aborting any session still in flight.
// Safe to call more than once.
func (e *Engine) Close() {
	e.closing.Store(true)
	e.loopWG.Wait()
}

// finishOne counts down the wave; the last retirement releases Run.
func (e *Engine) finishOne() {
	if e.remaining.Add(-1) == 0 {
		close(e.done)
	}
}

// failSetup records a dial- or handshake-stage failure.
func (e *Engine) failSetup(idx int, stage string, err error, start time.Time) {
	e.mu.Lock()
	if stage == StageDial {
		e.dialFails++
	} else {
		e.hsFails++
	}
	e.mu.Unlock()
	if stage == StageDial {
		e.met.reg.GlobalInc(e.met.cDialFailed)
	} else {
		e.met.reg.GlobalInc(e.met.cHsFailed)
	}
	if cb := e.cfg.OnSessionDone; cb != nil {
		cb(SessionStats{Index: idx, Stage: stage, Err: err, Elapsed: time.Since(start)})
	}
	e.finishOne()
}

// dialOne performs the dial and handshake for session idx and registers
// the resulting session on its shard.
func (e *Engine) dialOne(idx int) {
	addr := e.cfg.Addrs[idx%len(e.cfg.Addrs)]
	start := time.Now()
	conn, err := net.DialTimeout("tcp", addr, e.cfg.DialTimeout)
	if err != nil {
		e.failSetup(idx, StageDial, err, start)
		return
	}
	dialDur := time.Since(start)
	fail := func(err error) {
		_ = conn.Close()
		e.failSetup(idx, StageHandshake, err, start)
	}
	hsStart := time.Now()
	_ = conn.SetDeadline(hsStart.Add(e.cfg.HandshakeTimeout))
	if err := netstream.WriteHello(conn, netstream.Hello{
		ClientBuffer: uint32(e.cfg.Buffer),
		DesiredDelay: uint32(e.cfg.Delay),
	}); err != nil {
		fail(fmt.Errorf("writing hello: %w", err))
		return
	}
	msg, err := netstream.ReadMsg(conn)
	if err != nil {
		fail(fmt.Errorf("reading accept: %w", err))
		return
	}
	if msg.Accept == nil {
		fail(fmt.Errorf("expected accept, got %+v", msg))
		return
	}
	acc := *msg.Accept
	if acc.StepMicros == 0 {
		fail(fmt.Errorf("accept has zero step duration"))
		return
	}
	hsDur := time.Since(hsStart)
	_ = conn.SetDeadline(time.Time{})

	tc, ok := conn.(*net.TCPConn)
	if !ok {
		fail(fmt.Errorf("loadgen: %T is not a TCP connection", conn))
		return
	}
	// A completed protocol run ends with a hard close: linger 0 frees the
	// port immediately instead of parking it in TIME_WAIT, which would
	// exhaust the ephemeral range within a few ramp waves at 10k+
	// sessions.
	_ = tc.SetLinger(0)
	fd, err := reactor.ConnFd(tc)
	if err != nil {
		fail(err)
		return
	}

	s := &session{
		idx:       idx,
		conn:      conn,
		fd:        fd,
		delay:     int(acc.Delay),
		stepNanos: int64(acc.StepMicros) * 1000,
		maxStep:   -1,
		digest:    fnvOffset64,
		start:     start,
	}
	s.win.Reset(int(acc.Delay), reorderSlack)
	e.mu.Lock()
	e.dialHist.Add(int64(dialDur / time.Microsecond))
	e.hsHist.Add(int64(hsDur / time.Microsecond))
	e.mu.Unlock()

	sh := e.shards[idx%len(e.shards)]
	if !sh.Enqueue(s) {
		_ = conn.Close()
		e.failSetup(idx, StageHandshake, fmt.Errorf("loadgen: engine is closed"), start)
	}
}
