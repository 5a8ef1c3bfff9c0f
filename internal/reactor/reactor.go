// Package reactor is the shard core of the epoll engines: internal/lb
// (splice relay) and internal/loadgen (client engine) each embed one Core
// per shard and plug their session logic in as a Handler (DESIGN.md §5.6).
//
// Every wake takes one engine-monotonic stamp right after epoll_wait
// returns; admission, every ready event, the sweep and retirement in that
// wake all read that one stamp, so the hot paths never read the wall
// clock. The core requires Linux (epoll, splice): elsewhere Open fails,
// so the engines' New fails fast.
package reactor

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

const (
	// waitMs bounds one reactor nap; it also bounds how long a queued
	// session waits for admission and how stale a sweep can be.
	waitMs = 10
	// maxEvents is the per-wait event batch; more ready fds than this
	// simply surface on the next wait (level-triggered).
	maxEvents = 1024
	// sweepChunk bounds the per-wake sweep so a dense shard does not
	// walk its whole table every wake.
	sweepChunk = 256
	// initialFds is the fd table's starting size; it grows on demand.
	initialFds = 1024
)

// Event bits, as epoll(7) numbers them.
const (
	In      uint32 = 0x1
	Out     uint32 = 0x4
	Err     uint32 = 0x8
	Hup     uint32 = 0x10
	RdHup   uint32 = 0x2000
	OneShot uint32 = 1 << 30
)

// epoll_ctl(2) operations.
const (
	opAdd = 1
	opDel = 2
	opMod = 3
)

// Link is embedded in a session type: it keeps the session's position in
// its core's live list, so Remove is O(1).
type Link struct{ pos int }

func (l *Link) link() *Link { return l }

// Session constrains a core's session type to a pointer to a struct that
// embeds Link.
type Session interface {
	comparable
	link() *Link
}

// Handler is the session logic a Core drives. Every method runs on the
// core's goroutine with the wake's stamp.
type Handler[S Session] interface {
	// Admit registers a dequeued session, typically by watching its fds
	// with Add. It reports whether the session is live; on false it has
	// retired the session itself.
	Admit(s S, now int64) bool
	// Ready handles one ready fd of a session.
	Ready(s S, fd int, events uint32, now int64)
	// Sweep checks one live session for timeouts and may retire it.
	Sweep(s S, now int64)
	// Abort retires a session at shutdown. It must Remove a live one.
	Abort(s S, now int64)
}

// Core is one shard's reactor state. Open it, hand sessions over with
// Enqueue from any goroutine, and run it with Run on its own goroutine.
//
//smoothvet:confined owned by the reactor goroutine after Run starts
type Core[S Session] struct {
	epfd   int
	events []event

	// closing is the engine's close flag: Enqueue refuses sessions once
	// it is set, and Run shuts down on the first wake that sees it.
	closing *atomic.Bool
	base    time.Time // engine-wide monotonic origin of every stamp
	met     *obs.ShardMetrics
	active  obs.GaugeID

	//smoothvet:shared guards incoming only
	mu sync.Mutex
	//smoothvet:shared appended under mu by Enqueue, drained by admit
	incoming []S
	spare    []S

	sessions []S
	byFd     []S
	cur      int // sweep cursor into sessions
}

// Open creates the core's epoll set. closing and base are the engine's
// close flag and monotonic origin; met and active are the shard's metric
// row and the live-session gauge the core publishes each wake.
func (c *Core[S]) Open(closing *atomic.Bool, base time.Time, met *obs.ShardMetrics, active obs.GaugeID) error {
	epfd, err := epollCreate()
	if err != nil {
		c.epfd = -1
		return fmt.Errorf("reactor: epoll_create: %w", err)
	}
	c.epfd = epfd
	c.events = make([]event, maxEvents)
	c.closing, c.base = closing, base
	c.met, c.active = met, active
	c.byFd = make([]S, initialFds)
	return nil
}

// Close releases the epoll set. Run calls it at shutdown; an engine
// calls it directly only on a core whose Run never started.
func (c *Core[S]) Close() {
	if c.epfd >= 0 {
		closeFd(c.epfd)
		c.epfd = -1
	}
}

// Enqueue hands a session to the core from any goroutine. It reports
// false, keeping nothing, once the engine is closing.
func (c *Core[S]) Enqueue(s S) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closing.Load() {
		return false
	}
	c.incoming = append(c.incoming, s)
	return true
}

// Run is the reactor loop: wait, stamp once, run the wake. It returns
// after the first wake that sees the closing flag has aborted every live
// and queued session and released the epoll set.
func (c *Core[S]) Run(h Handler[S]) {
	for {
		n := epollWait(c.epfd, c.events, waitMs)
		c.wake(h, n, c.clock())
		if c.closing.Load() {
			c.shutdown(h)
			return
		}
	}
}

// clock returns nanoseconds since the engine's base on the monotonic
// clock.
func (c *Core[S]) clock() int64 { return int64(time.Since(c.base)) }

// wake runs one reactor wake against its stamp: admit queued sessions,
// send each of the n ready events to its session, sweep a bounded chunk,
// then publish the wake's metric state (one gauge store plus an
// O(metrics) snapshot copy per wake, never per byte).
//
//smoothvet:noalloc
func (c *Core[S]) wake(h Handler[S], n int, now int64) {
	c.admit(h, now)
	var zero S
	for i := 0; i < n; i++ {
		// An fd whose session retired earlier in this wake is unrouted:
		// its event is dropped.
		if fd := int(c.events[i].Fd); fd < len(c.byFd) && c.byFd[fd] != zero {
			h.Ready(c.byFd[fd], fd, c.events[i].Events, now)
		}
	}
	c.sweep(h, now)
	c.met.Set(c.active, uint64(len(c.sessions)))
	c.met.Publish()
}

// admit registers every queued session and lists the ones Admit accepts.
//
//smoothvet:noalloc
func (c *Core[S]) admit(h Handler[S], now int64) {
	c.mu.Lock()
	if len(c.incoming) == 0 {
		c.mu.Unlock()
		return
	}
	pend := c.incoming
	c.incoming = c.spare[:0]
	c.mu.Unlock()
	var zero S
	for i, s := range pend {
		if h.Admit(s, now) {
			s.link().pos = len(c.sessions)
			c.sessions = append(c.sessions, s)
		}
		pend[i] = zero
	}
	c.spare = pend[:0]
}

// sweep offers up to sweepChunk live sessions to Handler.Sweep, resuming
// where the last wake stopped. When a session retires, the one swapped
// into its slot is offered next, so a full cycle visits every session.
//
//smoothvet:noalloc
func (c *Core[S]) sweep(h Handler[S], now int64) {
	for k := min(sweepChunk, len(c.sessions)); k > 0 && len(c.sessions) > 0; k-- {
		if c.cur >= len(c.sessions) {
			c.cur = 0
		}
		s := c.sessions[c.cur]
		h.Sweep(s, now)
		if c.cur < len(c.sessions) && c.sessions[c.cur] == s {
			c.cur++
		}
	}
}

// shutdown aborts every live session and then every queued one, each
// exactly once, publishes an empty shard and releases the epoll set.
func (c *Core[S]) shutdown(h Handler[S]) {
	now := c.clock()
	for i := len(c.sessions) - 1; i >= 0; i-- {
		h.Abort(c.sessions[i], now)
	}
	c.mu.Lock()
	pend := c.incoming
	c.incoming = nil
	c.mu.Unlock()
	for _, s := range pend {
		h.Abort(s, now)
	}
	c.met.Set(c.active, 0)
	c.met.Publish()
	c.Close()
}

// Remove drops a session from the live list by swapping the last one
// into its slot. It is a no-op for a session that is not listed.
func (c *Core[S]) Remove(s S) {
	pos, last := s.link().pos, len(c.sessions)-1
	if pos < 0 || pos > last || c.sessions[pos] != s {
		return
	}
	var zero S
	c.sessions[pos] = c.sessions[last]
	c.sessions[pos].link().pos = pos
	c.sessions[last] = zero
	c.sessions = c.sessions[:last]
	if c.cur > last {
		c.cur = 0
	}
}

// Add watches fd for the given events and routes them to s.
func (c *Core[S]) Add(fd int, s S, events uint32) error {
	if err := epollCtl(c.epfd, opAdd, fd, events); err != nil {
		return err
	}
	if fd >= len(c.byFd) {
		grown := make([]S, fd+fd/2+1)
		copy(grown, c.byFd)
		c.byFd = grown
	}
	c.byFd[fd] = s
	return nil
}

// Mod changes the events a watched fd reports.
func (c *Core[S]) Mod(fd int, events uint32) error {
	return epollCtl(c.epfd, opMod, fd, events)
}

// Del stops watching fd and unroutes it from s. Its error is the epoll
// removal's; the route is dropped either way.
func (c *Core[S]) Del(fd int, s S) error {
	if fd >= 0 && fd < len(c.byFd) && c.byFd[fd] == s {
		var zero S
		c.byFd[fd] = zero
	}
	return epollCtl(c.epfd, opDel, fd, 0)
}

// ConnFd extracts a TCP connection's fd for a reactor. The fd stays owned
// by the net.Conn; the engines never read through the conn after the
// handshake, so the runtime poller and the reactor never contend.
func ConnFd(tc *net.TCPConn) (int, error) {
	rc, err := tc.SyscallConn()
	if err != nil {
		return 0, fmt.Errorf("reactor: raw conn: %w", err)
	}
	fd := -1
	if err := rc.Control(func(f uintptr) { fd = int(f) }); err != nil {
		return 0, fmt.Errorf("reactor: conn fd: %w", err)
	}
	return fd, nil
}
