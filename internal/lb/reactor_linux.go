//go:build linux

package lb

import (
	"fmt"
	"net"
	"syscall"

	"repro/internal/obs"
)

const (
	// epollWaitMs bounds one reactor nap; it also bounds how long a
	// placed session waits for registration.
	epollWaitMs = 10
	// maxEvents is the per-wait event batch; more ready fds than this
	// simply surface on the next wait (level-triggered).
	maxEvents = 1024
)

// poller wraps one epoll set watching two fds per session: the backend
// socket for readability and the client socket for hangup (plus a
// one-shot EPOLLOUT while the client is stalled).
type poller struct {
	epfd   int
	events []syscall.EpollEvent
}

func newPoller() (*poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("lb: epoll_create: %w", err)
	}
	return &poller{epfd: epfd, events: make([]syscall.EpollEvent, maxEvents)}, nil
}

// addRead arms fd for readability and peer hangup (the backend side).
func (p *poller) addRead(fd int) error {
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP, Fd: int32(fd)}
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev)
}

// addHup arms fd for peer hangup only (the client side at rest; the
// relay never reads the client).
func (p *poller) addHup(fd int) error {
	ev := syscall.EpollEvent{Events: syscall.EPOLLRDHUP, Fd: int32(fd)}
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev)
}

// armWrite switches a stalled client fd to one-shot writability: it
// fires once when the socket drains, then stays quiet until re-armed.
func (p *poller) armWrite(fd int) error {
	ev := syscall.EpollEvent{Events: syscall.EPOLLOUT | syscall.EPOLLRDHUP | syscall.EPOLLONESHOT, Fd: int32(fd)}
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, fd, &ev)
}

// rearmHup returns a resumed client fd to hangup-only watching.
func (p *poller) rearmHup(fd int) error {
	ev := syscall.EpollEvent{Events: syscall.EPOLLRDHUP, Fd: int32(fd)}
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, fd, &ev)
}

func (p *poller) del(fd int) error {
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, fd, nil)
}

func (p *poller) close() {
	if p.epfd >= 0 {
		_ = syscall.Close(p.epfd)
		p.epfd = -1
	}
}

// run is the shard reactor loop: wait for ready fds, stamp the shard
// clock once, admit placed sessions, relay every ready session against
// that one stamp, sweep a bounded idle/stall chunk. The single stamp per
// wake is the same tickClock discipline as internal/serve: every stall
// measurement and flight tick in a wake shares one monotonic reading.
func (sh *shard) run() {
	defer sh.eng.loopWG.Done()
	for {
		n, err := syscall.EpollWait(sh.poller.epfd, sh.poller.events, epollWaitMs)
		if err != nil {
			if err == syscall.EINTR {
				continue
			}
			n = 0
		}
		now := sh.eng.monotonic()
		sh.admit(now)
		for i := 0; i < n; i++ {
			ev := &sh.poller.events[i]
			if s := sh.lookupFd(int(ev.Fd)); s != nil {
				sh.dispatch(s, int(ev.Fd), ev.Events, now)
			}
		}
		sh.scanIdle(now)
		// Publish the wake's metric state: one gauge store plus an
		// O(metrics) snapshot copy per wake (≤100/s), never per byte.
		sh.met.Set(sh.eng.met.gActive, uint64(len(sh.sessions)))
		sh.met.Publish()
		if sh.eng.closing.Load() {
			sh.shutdown()
			return
		}
	}
}

// dispatch routes one epoll event: client-fd events resume a stalled
// write or notice a hangup; backend-fd events pump the relay.
//
//smoothvet:noalloc
func (sh *shard) dispatch(s *session, fd int, events uint32, now int64) {
	if fd == s.cfd {
		if s.stalled {
			s.stalled = false
			sh.met.Observe(sh.eng.met.hStall, (now-s.stallStart)/1000)
			if err := sh.poller.rearmHup(s.cfd); err != nil {
				sh.retire(s, err, now)
				return
			}
			// The backend fd left the epoll set at stall time; bytes it
			// buffered meanwhile surface level-triggered once re-added.
			if err := sh.poller.addRead(s.bfd); err != nil {
				sh.retire(s, err, now)
				return
			}
			sh.relay(s, now)
			return
		}
		if events&(syscall.EPOLLRDHUP|syscall.EPOLLHUP|syscall.EPOLLERR) != 0 {
			sh.onClientHup(s, now)
		}
		return
	}
	if s.stalled {
		// A backend event harvested in the same wake batch as the stall:
		// re-entering relay would re-stall and reset the stall clock,
		// defeating StallTimeout. The data keeps until the client resumes.
		return
	}
	sh.relay(s, now)
}

// onClientHup classifies a client hangup. Undelivered bytes parked in
// the pipe mean the client abandoned mid-stream: fail the
// session. With nothing undelivered the verdict belongs to the backend:
// its EOF means the client consumed the whole stream and simply closed
// first (the two FINs race through separate sockets, which is not a
// failure), while further payload is undeliverable. The session lingers
// on backend events until one of those arrives; the idle sweep bounds
// the wait. The client fd leaves the epoll set here so its level-
// triggered HUP stops re-firing every wake.
//
//smoothvet:noalloc
func (sh *shard) onClientHup(s *session, now int64) {
	if s.clientGone {
		return
	}
	if s.pipeFill > 0 {
		sh.retire(s, errClientGone, now)
		return
	}
	s.clientGone = true
	_ = sh.poller.del(s.cfd)
	// The backend's EOF may already be queued on its socket: resolve
	// immediately when it is.
	sh.finishClientGone(s, now)
}

// finishClientGone pumps the backend of a client-gone session to a
// verdict: payload fails it, EOF completes it, EAGAIN waits for the next
// backend event.
//
//smoothvet:noalloc
func (sh *shard) finishClientGone(s *session, now int64) {
	for {
		n, err := syscall.Splice(s.bfd, nil, s.pipeW, nil, spliceChunk, spliceFlags)
		if n > 0 {
			sh.retire(s, errClientGone, now)
			return
		}
		if err == nil {
			if s.ended || s.bytes > 0 {
				sh.retire(s, nil, now)
			} else {
				sh.retire(s, errClientGone, now)
			}
			return
		}
		if en, ok := err.(syscall.Errno); ok {
			if en == syscall.EAGAIN {
				return
			}
			if en == syscall.EINTR {
				continue
			}
		}
		sh.retireRelayErr(s, err, now)
		return
	}
}

// startRelay wires a placed session into the reactor: a pipe pair for
// the splice path, both fds into the epoll set. Runs on the shard
// goroutine.
func (sh *shard) startRelay(s *session, now int64) error {
	ctc, ok := s.clientConn.(*net.TCPConn)
	if !ok {
		return fmt.Errorf("lb: client %T is not a TCP connection", s.clientConn)
	}
	btc, ok := s.backendConn.(*net.TCPConn)
	if !ok {
		return fmt.Errorf("lb: backend conn %T is not a TCP connection", s.backendConn)
	}
	cfd, err := connFd(ctc)
	if err != nil {
		return err
	}
	bfd, err := connFd(btc)
	if err != nil {
		return err
	}
	var pipe [2]int
	if err := syscall.Pipe2(pipe[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		return fmt.Errorf("lb: pipe2: %w", err)
	}
	s.cfd, s.bfd = cfd, bfd
	s.pipeR, s.pipeW = pipe[0], pipe[1]
	if err := sh.poller.addRead(bfd); err != nil {
		return fmt.Errorf("lb: epoll add backend: %w", err)
	}
	if err := sh.poller.addHup(cfd); err != nil {
		_ = sh.poller.del(bfd)
		return fmt.Errorf("lb: epoll add client: %w", err)
	}
	sh.mapFd(bfd, s)
	sh.mapFd(cfd, s)
	// No immediate relay: epoll is level-triggered, so bytes the backend
	// sent while the session sat in the queue surface on the next wait.
	return nil
}

// closeRelay releases a session's reactor resources: epoll entries, the
// fd table, the pipe pair.
func (sh *shard) closeRelay(s *session) {
	if s.bfd >= 0 {
		_ = sh.poller.del(s.bfd)
		sh.unmapFd(s.bfd, s)
		s.bfd = -1
	}
	if s.cfd >= 0 {
		_ = sh.poller.del(s.cfd)
		sh.unmapFd(s.cfd, s)
		s.cfd = -1
	}
	if s.pipeR >= 0 {
		_ = syscall.Close(s.pipeR)
		_ = syscall.Close(s.pipeW)
		s.pipeR, s.pipeW = -1, -1
	}
}

// relay is the steady-state hot path: drain the pipe into the client,
// refill it from the backend, entirely kernel-to-kernel. pipeFill tracks
// the bytes parked in the pipe, which disambiguates EAGAIN (empty source
// vs full sink) without a peek syscall.
//
//smoothvet:noalloc
func (sh *shard) relay(s *session, now int64) {
	if s.clientGone {
		sh.finishClientGone(s, now)
		return
	}
	for {
		for s.pipeFill > 0 {
			n, err := syscall.Splice(s.pipeR, nil, s.cfd, nil, s.pipeFill, spliceFlags)
			if n > 0 {
				s.pipeFill -= int(n)
				s.bytes += n
				continue
			}
			if en, ok := err.(syscall.Errno); ok {
				if en == syscall.EAGAIN {
					// The client's socket buffer is full: park on a
					// one-shot EPOLLOUT.
					sh.stall(s, now)
					return
				}
				if en == syscall.EINTR {
					continue
				}
			}
			sh.retireRelayErr(s, err, now)
			return
		}
		if s.ended {
			sh.retire(s, nil, now)
			return
		}
		n, err := syscall.Splice(s.bfd, nil, s.pipeW, nil, spliceChunk, spliceFlags)
		if n > 0 {
			s.pipeFill += int(n)
			s.lastData = now
			if !s.anchored {
				s.anchored = true
				sh.rec.Record(now, obs.EvFirstWrite, s.id, int64(s.backendIdx))
			}
			continue
		}
		if err == nil {
			// Backend EOF: flush whatever the pipe still holds, then
			// retire clean on the next loop.
			s.ended = true
			continue
		}
		if en, ok := err.(syscall.Errno); ok {
			switch en {
			case syscall.EAGAIN:
				return
			case syscall.EINTR:
				continue
			}
		}
		sh.retireRelayErr(s, err, now)
		return
	}
}

const spliceFlags = 0x1 | 0x2 // SPLICE_F_MOVE | SPLICE_F_NONBLOCK

// retireRelayErr retires a session on a failed splice. EINVAL and ENOSYS
// mean these fds cannot splice at all (an exotic socket type); there is no
// other relay path, so the session fails with that error and is counted
// as a splice fallback.
func (sh *shard) retireRelayErr(s *session, err error, now int64) {
	if err == syscall.EINVAL || err == syscall.ENOSYS {
		sh.met.Inc(sh.eng.met.cFallback)
		sh.eng.fallbacks.Add(1)
	}
	sh.retire(s, err, now)
}

// stall parks a session on client writability. The backend fd leaves the
// epoll set for the duration: its level-triggered readability would
// otherwise spin the reactor awake (and, via relay, reset the stall
// clock) the whole time the client is parked. Pending backend bytes wait
// in its socket buffer and resurface when dispatch re-adds the fd at
// resume.
func (sh *shard) stall(s *session, now int64) {
	if s.stalled {
		return
	}
	s.stalled = true
	s.stallStart = now
	sh.met.Inc(sh.eng.met.cStalls)
	if err := sh.poller.del(s.bfd); err != nil {
		sh.retire(s, err, now)
		return
	}
	if err := sh.poller.armWrite(s.cfd); err != nil {
		sh.retire(s, err, now)
	}
}

// shutdown aborts every live and queued session and releases the epoll
// set. Runs once, on the shard goroutine, after Engine.Close.
func (sh *shard) shutdown() {
	now := sh.eng.monotonic()
	for len(sh.sessions) > 0 {
		sh.retire(sh.sessions[len(sh.sessions)-1], errRelayShutdown, now)
	}
	sh.drainIncoming(now)
	sh.met.Set(sh.eng.met.gActive, 0)
	sh.met.Publish()
	sh.poller.close()
}
