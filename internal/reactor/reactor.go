// Package reactor is the shard core of the epoll engines: internal/serve
// (paced cohort writes), internal/lb (splice relay) and internal/loadgen
// (client engine) each embed one Core per shard and plug their session
// logic in as a Handler (DESIGN.md §5.6).
//
// Every wake takes one engine-monotonic stamp right after epoll_wait
// returns; admission, every ready event, the sweep and retirement in that
// wake all read that one stamp, so the hot paths never read the wall
// clock. A core opened with a period also ticks (Ticker): each tick is
// stamped as it starts. The core requires Linux (epoll, timerfd, splice):
// elsewhere Open fails, so the engines' New fails fast.
package reactor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
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

// Ticker is the optional fifth method of a Handler whose core was opened
// with a period. Tick k is scheduled at start + k·period; a wake runs
// every tick due by its stamp, back to back, so a stalled loop or host
// catches up on the ticks it missed instead of shifting the schedule.
// now is the tick's own stamp and late how far it started behind its
// schedule (a full period or more means the tick was missed on time).
type Ticker interface {
	Tick(now, late int64)
}

// Core is one shard's reactor state. Open it, hand sessions over with
// Enqueue from any goroutine, and run it with Run on its own goroutine.
//
//smoothvet:confined owned by the reactor goroutine after Run starts
type Core[S Session] struct {
	epfd   int
	events []event

	// The tick schedule: a timerfd in the epoll set wakes the loop each
	// period; next is the stamp tick k is due at (start + k·period).
	period int64
	tfd    int
	next   int64
	tbuf   [8]byte // timerfd expiration count, read and discarded

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
// row and the live-session gauge the core publishes each wake. A positive
// period starts the tick schedule: the first tick is due one period after
// Open, and Run calls the handler's Tick for each one.
func (c *Core[S]) Open(closing *atomic.Bool, base time.Time, met *obs.ShardMetrics, active obs.GaugeID, period time.Duration) error {
	c.epfd, c.tfd = -1, -1
	epfd, err := epollCreate()
	if err != nil {
		return fmt.Errorf("reactor: epoll_create: %w", err)
	}
	c.epfd = epfd
	c.events = make([]event, maxEvents)
	c.closing, c.base = closing, base
	c.met, c.active = met, active
	c.byFd = make([]S, initialFds)
	if period > 0 {
		// Stamp before arming: the timer's expiries then never precede
		// the schedule the ticks are judged against.
		c.period = int64(period)
		c.next = c.Now() + c.period
		if c.tfd, err = timerStart(c.period); err == nil {
			err = epollCtl(c.epfd, opAdd, c.tfd, In)
		}
		if err != nil {
			c.Close()
			return fmt.Errorf("reactor: tick timer: %w", err)
		}
	}
	return nil
}

// Close releases the epoll set and the tick timer. Run calls it at
// shutdown; an engine calls it directly only on a core whose Run never
// started.
func (c *Core[S]) Close() {
	if c.tfd >= 0 {
		closeFd(c.tfd)
		c.tfd = -1
	}
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

// Run is the reactor loop: wait, stamp once, run the wake, run the ticks
// due, publish. It returns after the first wake that sees the closing
// flag has aborted every live and queued session and released the epoll
// set. The handler is converted to a Ticker once, here.
func (c *Core[S]) Run(h Handler[S]) {
	tk, _ := h.(Ticker)
	for {
		n := epollWait(c.epfd, c.events, waitMs)
		now := c.Now()
		c.wake(h, n, now)
		if tk != nil {
			c.tick(tk, now)
		}
		c.publish()
		if c.closing.Load() {
			c.shutdown(h)
			return
		}
	}
}

// Now returns nanoseconds since the engine's base on the monotonic
// clock.
func (c *Core[S]) Now() int64 { return int64(time.Since(c.base)) }

// wake runs one reactor wake against its stamp: admit queued sessions,
// send each of the n ready events to its session, and sweep a bounded
// chunk.
//
//smoothvet:noalloc
func (c *Core[S]) wake(h Handler[S], n int, now int64) {
	c.admit(h, now)
	var zero S
	for i := 0; i < n; i++ {
		fd := int(c.events[i].Fd)
		if fd == c.tfd {
			// Only the wake matters: tick reads the clock, not the
			// expiration count.
			timerRead(fd, c.tbuf[:])
			continue
		}
		// An fd whose session retired earlier in this wake is unrouted:
		// its event is dropped.
		if fd < len(c.byFd) && c.byFd[fd] != zero {
			h.Ready(c.byFd[fd], fd, c.events[i].Events, now)
		}
	}
	c.sweep(h, now)
}

// tick runs, back to back, every tick due by the wake stamp now. Ticks
// that fall due while these run wait for the next wake, so admission,
// ready events and the closing flag are never starved for longer than
// the backlog this wake found.
func (c *Core[S]) tick(t Ticker, now int64) {
	for due := now; c.next <= due; c.next += c.period {
		now = c.Now()
		t.Tick(now, now-c.next)
	}
}

// publish stores the shard's active-sessions gauge and publishes its
// metric snapshot: one gauge store plus an O(metrics) copy per wake,
// never per byte.
func (c *Core[S]) publish() {
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
			c.List(s)
		}
		pend[i] = zero
	}
	c.spare = pend[:0]
}

// List appends an admitted session to the live list. The core lists every
// session Admit accepts; socket-free benchmarks list sessions directly.
func (c *Core[S]) List(s S) {
	s.link().pos = len(c.sessions)
	c.sessions = append(c.sessions, s)
}

// Sessions returns the live list. Remove swaps the last session into the
// removed one's slot, so a walk that retires sessions re-reads the list
// and revisits that slot.
func (c *Core[S]) Sessions() []S { return c.sessions }

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
	now := c.Now()
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
	c.publish()
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

// ConnFd extracts a socket connection's fd for a reactor. The fd stays
// owned by the net.Conn; the engines never read or write through the conn
// after the handshake, so the runtime poller and the reactor never
// contend.
func ConnFd(sc syscall.Conn) (int, error) {
	rc, err := sc.SyscallConn()
	if err != nil {
		return 0, fmt.Errorf("reactor: raw conn: %w", err)
	}
	fd := -1
	if err := rc.Control(func(f uintptr) { fd = int(f) }); err != nil {
		return 0, fmt.Errorf("reactor: conn fd: %w", err)
	}
	return fd, nil
}
