//go:build linux

package reactor

import (
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// tsess is a test session: one pipe whose read end the core watches.
type tsess struct {
	Link
	id   int
	r, w int
}

// testHandler records every call the core makes; the optional hooks let
// a case retire sessions from inside Ready or Sweep.
type testHandler struct {
	c      *Core[*tsess]
	ready  []*tsess
	swept  []*tsess
	aborts map[*tsess]int
	admits map[*tsess]int

	onReady func(s *tsess, fd int)
	onSweep func(s *tsess)
}

func (h *testHandler) Admit(s *tsess, now int64) bool {
	h.admits[s]++
	if err := h.c.Add(s.r, s, In|RdHup); err != nil {
		return false
	}
	return true
}

func (h *testHandler) Ready(s *tsess, fd int, events uint32, now int64) {
	h.ready = append(h.ready, s)
	if h.onReady != nil {
		h.onReady(s, fd)
	}
}

func (h *testHandler) Sweep(s *tsess, now int64) {
	h.swept = append(h.swept, s)
	if h.onSweep != nil {
		h.onSweep(s)
	}
}

func (h *testHandler) Abort(s *tsess, now int64) {
	h.aborts[s]++
	h.retire(s)
}

// retire is the handler-side retirement every engine performs: unroute
// the fd, then drop the session from the live list.
func (h *testHandler) retire(s *tsess) {
	_ = h.c.Del(s.r, s)
	h.c.Remove(s)
}

// newTestCore opens a core on a one-shard registry and returns it with
// its closing flag and a fresh handler.
func newTestCore(t *testing.T) (*Core[*tsess], *atomic.Bool, *testHandler) {
	t.Helper()
	var b obs.Builder
	active := b.Gauge("test_active", "live sessions")
	reg := obs.Build(&b, 1)
	closing := new(atomic.Bool)
	c := new(Core[*tsess])
	if err := c.Open(closing, time.Now(), reg.Shard(0), active); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	h := &testHandler{c: c, aborts: map[*tsess]int{}, admits: map[*tsess]int{}}
	return c, closing, h
}

// newSessions makes n sessions with a pipe each, closed at cleanup.
func newSessions(t *testing.T, n int) []*tsess {
	t.Helper()
	out := make([]*tsess, n)
	for i := range out {
		r, w, err := Pipe()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = &tsess{id: i, r: r, w: w}
		t.Cleanup(func() {
			_ = syscall.Close(r)
			_ = syscall.Close(w)
		})
	}
	return out
}

// admitAll enqueues every session and admits the queue, so the core
// lists them with the sweep cursor still at the front.
func admitAll(t *testing.T, c *Core[*tsess], h *testHandler, ss []*tsess) {
	t.Helper()
	for _, s := range ss {
		if !c.Enqueue(s) {
			t.Fatalf("enqueue of session %d refused", s.id)
		}
	}
	c.admit(h, 0)
	if len(c.sessions) != len(ss) {
		t.Fatalf("%d sessions listed after admit, want %d", len(c.sessions), len(ss))
	}
}

func TestEventBitsMatchEpoll(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uint32
	}{
		{"In", In, syscall.EPOLLIN},
		{"Out", Out, syscall.EPOLLOUT},
		{"Err", Err, syscall.EPOLLERR},
		{"Hup", Hup, syscall.EPOLLHUP},
		{"RdHup", RdHup, syscall.EPOLLRDHUP},
		{"OneShot", OneShot, syscall.EPOLLONESHOT},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %#x, epoll says %#x", tc.name, tc.got, tc.want)
		}
	}
	if opAdd != syscall.EPOLL_CTL_ADD || opDel != syscall.EPOLL_CTL_DEL || opMod != syscall.EPOLL_CTL_MOD {
		t.Error("epoll_ctl op numbers drifted from syscall's")
	}
}

// TestFdTableGrows routes an fd numbered past the table's initial 1024
// slots and checks its event reaches its session.
func TestFdTableGrows(t *testing.T) {
	c, _, h := newTestCore(t)
	ss := newSessions(t, 1)
	const high = initialFds + 500
	if err := syscall.Dup2(ss[0].r, high); err != nil {
		t.Skipf("cannot open fd %d: %v", high, err)
	}
	defer syscall.Close(high)
	s := &tsess{id: 1, r: high, w: ss[0].w}
	if err := c.Add(high, s, In); err != nil {
		t.Fatal(err)
	}
	if len(c.byFd) <= high {
		t.Fatalf("fd table holds %d slots after adding fd %d", len(c.byFd), high)
	}
	if _, err := syscall.Write(s.w, []byte{1}); err != nil {
		t.Fatal(err)
	}
	c.wake(h, epollWait(c.epfd, c.events, 100), 1)
	if len(h.ready) != 1 || h.ready[0] != s {
		t.Fatalf("ready calls %v, want one for the high fd's session", h.ready)
	}
	if err := c.Del(high, s); err != nil {
		t.Fatal(err)
	}
	if c.byFd[high] != nil {
		t.Fatalf("fd %d still routes to a session after Del", high)
	}
}

// TestSweepVisitsEverySession retires every other session as the sweep
// offers it, across chunk boundaries. Each retirement swaps the list's
// last session into the freed slot; the cycle from the front must still
// offer every session, the swapped-in ones included, before offering any
// twice.
func TestSweepVisitsEverySession(t *testing.T) {
	c, _, h := newTestCore(t)
	const n = 2*sweepChunk + 88
	ss := newSessions(t, n)
	admitAll(t, c, h, ss)
	h.onSweep = func(s *tsess) {
		if s.id%2 == 0 {
			h.retire(s)
		}
	}
	seen := map[*tsess]bool{}
	cycle := 0
	for wakes := 0; wakes < 8 && cycle == 0; wakes++ {
		h.swept = h.swept[:0]
		c.wake(h, 0, 0)
		if len(h.swept) > sweepChunk {
			t.Fatalf("wake offered %d sessions, chunk is %d", len(h.swept), sweepChunk)
		}
		for _, s := range h.swept {
			if seen[s] {
				cycle = len(seen)
				break
			}
			seen[s] = true
		}
	}
	if cycle != n {
		t.Fatalf("a sweep cycle offered %d of %d sessions before repeating one", cycle, n)
	}
	if len(c.sessions) != n/2 {
		t.Fatalf("%d sessions live, want %d", len(c.sessions), n/2)
	}
	for i, s := range c.sessions {
		if s.pos != i {
			t.Fatalf("session %d at slot %d records position %d", s.id, i, s.pos)
		}
	}
}

// TestRetiredFdEventDropped readies two sessions in one wake; whichever
// Ready runs first retires the other, whose event in the same batch must
// be dropped.
func TestRetiredFdEventDropped(t *testing.T) {
	c, _, h := newTestCore(t)
	ss := newSessions(t, 2)
	admitAll(t, c, h, ss)
	h.onReady = func(s *tsess, fd int) {
		h.retire(ss[1-s.id])
	}
	for _, s := range ss {
		if _, err := syscall.Write(s.w, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	// Both pipes are readable before the wait, so one wait harvests both.
	n := epollWait(c.epfd, c.events, 100)
	if n != 2 {
		t.Fatalf("epoll reported %d ready fds, want 2", n)
	}
	c.wake(h, n, 1)
	if len(h.ready) != 1 {
		t.Fatalf("%d Ready calls, want 1: the retired session's event must be dropped", len(h.ready))
	}
	if len(c.sessions) != 1 || c.sessions[0] != h.ready[0] {
		t.Fatalf("live list %v, want only the session that ran", c.sessions)
	}
}

// TestEnqueueAfterCloseRefused: once the closing flag is up, Enqueue
// refuses and queues nothing.
func TestEnqueueAfterCloseRefused(t *testing.T) {
	c, closing, _ := newTestCore(t)
	ss := newSessions(t, 1)
	closing.Store(true)
	if c.Enqueue(ss[0]) {
		t.Fatal("Enqueue accepted a session after close")
	}
	if len(c.incoming) != 0 {
		t.Fatalf("%d sessions queued after a refused Enqueue", len(c.incoming))
	}
}

// TestShutdownAbortsEachOnce: shutdown aborts every listed session and
// every queued-but-unadmitted one exactly once, admits none of the queued
// ones and releases the epoll set.
func TestShutdownAbortsEachOnce(t *testing.T) {
	c, closing, h := newTestCore(t)
	ss := newSessions(t, 8)
	admitAll(t, c, h, ss[:5])
	for _, s := range ss[5:] {
		if !c.Enqueue(s) {
			t.Fatal("enqueue refused before close")
		}
	}
	closing.Store(true)
	c.shutdown(h)
	for _, s := range ss {
		if got := h.aborts[s]; got != 1 {
			t.Errorf("session %d aborted %d times, want 1", s.id, got)
		}
	}
	for _, s := range ss[5:] {
		if h.admits[s] != 0 {
			t.Errorf("queued session %d was admitted during shutdown", s.id)
		}
	}
	if len(c.sessions) != 0 || len(c.incoming) != 0 {
		t.Errorf("after shutdown: %d live, %d queued", len(c.sessions), len(c.incoming))
	}
	if c.epfd != -1 {
		t.Error("shutdown left the epoll set open")
	}
	if c.Enqueue(ss[0]) {
		t.Error("Enqueue accepted a session after shutdown")
	}
}

// TestRunReturnsOnClose drives the real loop: a session readied from
// another goroutine reaches Ready, and setting the closing flag makes
// Run abort it and return within a wake or two.
func TestRunReturnsOnClose(t *testing.T) {
	c, closing, h := newTestCore(t)
	ss := newSessions(t, 1)
	if !c.Enqueue(ss[0]) {
		t.Fatal("enqueue refused")
	}
	got := make(chan struct{}, 1)
	h.onReady = func(s *tsess, fd int) {
		var buf [1]byte
		_, _ = syscall.Read(fd, buf[:])
		select {
		case got <- struct{}{}:
		default:
		}
	}
	done := make(chan struct{})
	//smoothvet:transfer the core belongs to the Run goroutine until done
	go func() {
		defer close(done)
		c.Run(h)
	}()
	if _, err := syscall.Write(ss[0].w, []byte{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("Ready never ran")
	}
	closing.Store(true)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after close")
	}
	if h.aborts[ss[0]] != 1 {
		t.Fatalf("session aborted %d times, want 1", h.aborts[ss[0]])
	}
}
