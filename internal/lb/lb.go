// Package lb is the fleet front tier: one smoothlb process accepts
// client sessions, places each on one of N smoothd backends, and relays
// the backend's pre-encoded wire stream back to the client. The paper's
// per-server story tops out at one machine's sessions; "millions of
// users" is this tier times N backends, and the tier itself must add
// near-zero per-step cost to keep the end-to-end smoothing guarantees
// intact.
//
// # Architecture
//
// The engine is split into a control plane and a data plane. The
// data-plane shards run on internal/reactor's core, as internal/loadgen's
// do:
//
//   - Front door: Handle reads the client's Hello (the only blocking
//     read on the client side), applies admission control — an optional
//     admission.Gate precomputed from per-step demand samples, plus a
//     hard session cap — and pushes the session onto a bounded
//     pending-admit queue.
//   - Placer: a pool of placement workers pulls from the pending queue,
//     scores every healthy, non-draining backend by live buffer headroom
//     minus a step-lag penalty (both refreshed from the backends'
//     /statusz JSON when metrics addresses are configured, with the
//     LB-local active count as the always-fresh floor), dials the best
//     backend, forwards the Hello, and relays the Accept back to the
//     client. Dial or handshake failure marks the backend unhealthy and
//     re-places the session elsewhere, up to Config.ReplaceLimit times;
//     a backend entering drain (DrainBackend, or a scraped
//     serve_draining=1) is skipped by scoring and sessions already
//     picked for it are re-placed before the dial — graceful drain is a
//     placement event, never a client-visible failure.
//   - Shard reactors: after the handshake the session becomes pure byte
//     relay. Each shard embeds a reactor.Core (epoll set, wake loop,
//     fd table, sweep) and plugs in the relay; the steady-state
//     path splices backend socket → per-session pipe → client socket
//     (kernel-to-kernel, no userspace copy, zero allocation). That is the
//     only relay path: a session whose fds cannot splice fails with the
//     splice error and is counted (zero in the benchmarks). The tier is
//     Linux-only; on other platforms New fails fast. A stalled client
//     write parks the session on an edge-armed EPOLLOUT and the stall
//     duration streams into a histogram; stalls beyond
//     Config.StallTimeout retire the session.
//
// Every wake stamps one engine-monotonic clock reading shared by all
// sessions drained in it (the reactor core's stamp), so flight-recorder
// ticks and stall measurements never read the wall clock on the hot
// path. The relay path carries //smoothvet:noalloc and the shard structs
// //smoothvet:confined; BenchmarkLBRelayStep pins the per-step relay at
// exactly 0 B/op 0 allocs/op.
package lb

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/netstream"
	"repro/internal/obs"
)

var (
	errEngineClosed  = errors.New("lb: engine is closed")
	errQueueFull     = errors.New("lb: pending-admit queue is full")
	errAdmission     = errors.New("lb: admission refused")
	errSessionCap    = errors.New("lb: session cap reached")
	errNoBackend     = errors.New("lb: no healthy backend")
	errClientGone    = errors.New("lb: client hung up mid-relay")
	errIdleTimeout   = errors.New("lb: backend idle timeout")
	errStallTimeout  = errors.New("lb: client write stalled past the stall timeout")
	errBackendDrain  = errors.New("lb: backend started draining")
	errRelayShutdown = errors.New("lb: relay aborted by engine close")
)

// Config parameterizes an Engine.
type Config struct {
	// Backends are the smoothd addresses sessions are placed on.
	// Required.
	Backends []string
	// MetricsAddrs optionally lists each backend's diag address
	// (host:port of its -debug listener), parallel to Backends; empty
	// entries (or an empty slice) disable scraping for that backend and
	// scoring falls back to the LB-local active count alone.
	MetricsAddrs []string
	// Shards is the number of relay reactor shards (default GOMAXPROCS).
	Shards int
	// MaxSessions caps concurrently admitted sessions (0 = unlimited).
	MaxSessions int
	// BackendSlots is the per-backend session capacity headroom is
	// scored against (default 10000).
	BackendSlots int
	// PendingLimit bounds the pending-admit queue (default 4096).
	PendingLimit int
	// PlaceWorkers bounds concurrent placement (dial+handshake) workers
	// (default 16).
	PlaceWorkers int
	// ReplaceLimit bounds how many times one session is re-placed after
	// dial/handshake failures or drains before it fails (default 3).
	ReplaceLimit int
	// DialTimeout bounds one backend TCP dial (default 5s).
	DialTimeout time.Duration
	// HandshakeTimeout bounds the Hello/Accept exchange on either side
	// (default 10s).
	HandshakeTimeout time.Duration
	// IdleTimeout retires a session whose backend has sent nothing for
	// this long (default 30s; negative disables).
	IdleTimeout time.Duration
	// StallTimeout retires a session whose client write has been stalled
	// for this long (default 10s; negative disables).
	StallTimeout time.Duration
	// ScrapeInterval is the backend /statusz poll period when
	// MetricsAddrs are set (default 1s).
	ScrapeInterval time.Duration
	// ProbeInterval is the unhealthy-backend re-probe period (default 1s).
	ProbeInterval time.Duration
	// Gate, if non-nil, is the front-door admission gate; sessions it
	// refuses are rejected before queueing.
	Gate *admission.Gate
	// OnSessionDone, if non-nil, is called once per admitted session as
	// it finishes, possibly concurrently.
	OnSessionDone func(SessionStats)
	// Instrument, if non-nil, registers extra metrics on the tier's
	// obs.Builder before it freezes.
	Instrument func(b *obs.Builder)
}

// SessionStats summarizes one admitted session's life through the tier.
type SessionStats struct {
	// ID is the tier-wide session id (flight-recorder sess field).
	ID uint64
	// Backend is the index the session last relayed through (-1 if it
	// never placed).
	Backend int
	// Err is nil for a session that relayed the full stream.
	Err error
	// Bytes is the relay volume delivered to the client.
	Bytes int64
	// Replacements counts how many times placement moved the session.
	Replacements int
	// Elapsed is the wall-clock time from admission to retirement.
	Elapsed time.Duration
}

// Engine is the fleet front tier: accept → admit → place → relay.
type Engine struct {
	cfg  Config
	base time.Time // engine-wide monotonic base for all stamps

	backends []*backend
	shards   []*shard
	met      *lbMetrics
	// recs[0] is the front-door/placer ring (admit, place, re-place,
	// drain events); recs[1+i] is shard i's relay ring.
	recs []*obs.FlightRecorder

	pending   chan *session
	pendCount atomic.Int64
	active    atomic.Int64
	seq       atomic.Uint64
	fallbacks atomic.Int64

	httpc *http.Client

	closing atomic.Bool
	quit    chan struct{}
	placeWG sync.WaitGroup
	loopWG  sync.WaitGroup
	maintWG sync.WaitGroup
}

// New validates the config, connects the metric registry and starts the
// shard reactors, placement workers and the scrape/probe maintenance
// loop.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("lb: no backends")
	}
	if len(cfg.MetricsAddrs) != 0 && len(cfg.MetricsAddrs) != len(cfg.Backends) {
		return nil, fmt.Errorf("lb: %d metrics addresses for %d backends", len(cfg.MetricsAddrs), len(cfg.Backends))
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.BackendSlots <= 0 {
		cfg.BackendSlots = 10000
	}
	if cfg.PendingLimit <= 0 {
		cfg.PendingLimit = 4096
	}
	if cfg.PlaceWorkers <= 0 {
		cfg.PlaceWorkers = 16
	}
	if cfg.ReplaceLimit <= 0 {
		cfg.ReplaceLimit = 3
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 10 * time.Second
	}
	if cfg.ScrapeInterval <= 0 {
		cfg.ScrapeInterval = time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	e := &Engine{
		cfg:     cfg,
		base:    time.Now(),
		pending: make(chan *session, cfg.PendingLimit),
		quit:    make(chan struct{}),
		httpc:   &http.Client{Timeout: cfg.ScrapeInterval},
	}
	e.backends = make([]*backend, len(cfg.Backends))
	for i, addr := range cfg.Backends {
		b := &backend{idx: i, addr: addr}
		if i < len(cfg.MetricsAddrs) && cfg.MetricsAddrs[i] != "" {
			b.statusURL = "http://" + cfg.MetricsAddrs[i] + "/statusz"
		}
		e.backends[i] = b
	}
	e.met = newLBMetrics(e, cfg.Shards, cfg.Instrument)
	e.recs = make([]*obs.FlightRecorder, cfg.Shards+1)
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
	for w := 0; w < cfg.PlaceWorkers; w++ {
		e.placeWG.Add(1)
		go e.placeLoop()
	}
	e.maintWG.Add(1)
	go e.maintain()
	return e, nil
}

// monotonic returns nanoseconds since the engine's base on the monotonic
// clock; every shard stamp, flight tick and stall measurement lives on
// this axis.
func (e *Engine) monotonic() int64 { return int64(time.Since(e.base)) }

// Handle admits one client connection into the tier: it reads the Hello,
// applies the admission gate and the session cap, and queues the session
// for placement. The handshake read blocks (bounded by
// HandshakeTimeout), so callers run Handle on a per-connection
// goroutine, exactly like serve.Engine.Handle. A non-nil error means the
// connection was rejected and closed.
func (e *Engine) Handle(conn net.Conn) error {
	if e.closing.Load() {
		return e.reject(conn, errEngineClosed)
	}
	_ = conn.SetReadDeadline(time.Now().Add(e.cfg.HandshakeTimeout))
	msg, err := netstream.ReadMsg(conn)
	if err != nil {
		return e.reject(conn, fmt.Errorf("lb: reading hello: %w", err))
	}
	if msg.Hello == nil {
		return e.reject(conn, fmt.Errorf("lb: expected hello, got %+v", msg))
	}
	_ = conn.SetReadDeadline(time.Time{})
	if limit := e.cfg.MaxSessions; limit > 0 && e.active.Load() >= int64(limit) {
		return e.reject(conn, errSessionCap)
	}
	if g := e.cfg.Gate; g != nil && !g.TryAdmit() {
		return e.reject(conn, errAdmission)
	}
	s := &session{
		id:         e.seq.Add(1),
		clientConn: conn,
		hello:      *msg.Hello,
		start:      time.Now(),
		enqueued:   e.monotonic(),
		cfd:        -1,
		bfd:        -1,
		pipeR:      -1,
		pipeW:      -1,
		backendIdx: -1,
	}
	e.active.Add(1)
	select {
	case e.pending <- s:
	default:
		e.active.Add(-1)
		if g := e.cfg.Gate; g != nil {
			g.Release()
		}
		return e.reject(conn, errQueueFull)
	}
	e.pendCount.Add(1)
	e.met.reg.GlobalInc(e.met.cAccepted)
	e.recs[0].Record(s.enqueued, obs.EvAdmit, s.id, 0)
	if e.closing.Load() {
		// Close ran while this goroutine was blocked in the hello read:
		// its drain of e.pending may already be past, in which case the
		// session just queued would leak (conn open, active pinned,
		// OnSessionDone never fired). closing was set before that drain,
		// so seeing it false here means the drain has yet to run and will
		// collect the session; seeing it true means this goroutine must
		// drain instead. Pulling sessions other goroutines queued is fine
		// — everything queued after closing is failed with errEngineClosed
		// regardless of who pulls it, and channel receives never double-
		// deliver.
		e.drainPending()
		return errEngineClosed
	}
	return nil
}

// drainPending pulls and fails every queued session; used by Close after
// the placement workers stop and by Handle when its enqueue races that
// drain.
func (e *Engine) drainPending() {
	now := e.monotonic()
	for {
		select {
		case s := <-e.pending:
			e.pendCount.Add(-1)
			e.failPlacement(s, errEngineClosed, now)
		default:
			return
		}
	}
}

// reject closes a refused connection and counts it.
func (e *Engine) reject(conn net.Conn, err error) error {
	_ = conn.Close()
	e.met.reg.GlobalInc(e.met.cRejected)
	return err
}

// sessionDone releases front-door accounting for one admitted session
// and fires the completion callback. Every admitted session passes here
// exactly once, whether it failed in placement or retired on a shard.
func (e *Engine) sessionDone(s *session, err error, now int64) {
	e.active.Add(-1)
	if g := e.cfg.Gate; g != nil {
		g.Release()
	}
	if cb := e.cfg.OnSessionDone; cb != nil {
		cb(SessionStats{
			ID:           s.id,
			Backend:      s.backendIdx,
			Err:          err,
			Bytes:        s.bytes,
			Replacements: s.retries,
			Elapsed:      e.base.Add(time.Duration(now)).Sub(s.start),
		})
	}
}

// DrainBackend marks backend i as draining: scoring skips it, placement
// workers re-place sessions already picked for it, and sessions already
// relaying through it run to completion. The drain is a flight-recorder
// event; it cannot be undone short of restarting the tier.
func (e *Engine) DrainBackend(i int) error {
	if i < 0 || i >= len(e.backends) {
		return fmt.Errorf("lb: backend %d out of range", i)
	}
	b := e.backends[i]
	if !b.drainManual.Swap(true) {
		e.met.reg.GlobalInc(e.met.cDrains)
		e.recs[0].Record(e.monotonic(), obs.EvBackendDrain, uint64(i), 0)
	}
	return nil
}

// Drain waits for every admitted session to finish, up to timeout,
// without aborting relays; it reports whether the tier emptied. Callers
// stop feeding Handle first.
func (e *Engine) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if e.active.Load() == 0 {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return e.active.Load() == 0
}

// Close stops the placement workers and shard reactors, aborting any
// session still in flight. Safe to call more than once.
func (e *Engine) Close() {
	if e.closing.Swap(true) {
		e.loopWG.Wait()
		return
	}
	close(e.quit)
	e.placeWG.Wait()
	e.maintWG.Wait()
	// Fail everything still queued. Workers are gone, so only a Handle
	// goroutine still blocked in its hello read can enqueue after this —
	// and it re-checks closing after its send and drains its own wake.
	e.drainPending()
	e.loopWG.Wait()
}

// Active returns the number of admitted, unfinished sessions.
func (e *Engine) Active() int { return int(e.active.Load()) }

// SpliceFallbacks returns how many sessions failed because their sockets
// could not splice — zero on a healthy Linux host.
func (e *Engine) SpliceFallbacks() int64 { return e.fallbacks.Load() }

// Obs returns the tier's metric registry for diag endpoints and tests.
func (e *Engine) Obs() *obs.Registry { return e.met.reg }

// FlightRecorders returns the tier's flight rings: index 0 is the
// front-door/placer ring, index 1+i is relay shard i.
func (e *Engine) FlightRecorders() []*obs.FlightRecorder { return e.recs }
