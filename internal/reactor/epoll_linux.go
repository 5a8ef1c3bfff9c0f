//go:build linux

package reactor

import (
	"syscall"
	"unsafe"
)

type event = syscall.EpollEvent

func epollCreate() (int, error) { return syscall.EpollCreate1(syscall.EPOLL_CLOEXEC) }

func epollCtl(epfd, op, fd int, events uint32) error {
	ev := syscall.EpollEvent{Events: events, Fd: int32(fd)}
	return syscall.EpollCtl(epfd, op, fd, &ev)
}

// epollWait waits up to ms for ready fds, retrying on EINTR; any other
// error reads as an empty wake.
func epollWait(epfd int, events []event, ms int) int {
	for {
		n, err := syscall.EpollWait(epfd, events, ms)
		if err == nil {
			return n
		}
		if err != syscall.EINTR {
			return 0
		}
	}
}

func closeFd(fd int) { _ = syscall.Close(fd) }

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock time.Since reads

// timerStart returns a non-blocking timerfd on the monotonic clock that
// first expires one period from now and then every period (timerfd(2)).
func timerStart(period int64) (int, error) {
	fd, _, e := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return -1, e
	}
	ts := syscall.NsecToTimespec(period)
	spec := [2]syscall.Timespec{ts, ts} // it_interval, it_value
	if _, _, e := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		closeFd(int(fd))
		return -1, e
	}
	return int(fd), nil
}

// timerRead consumes a timerfd's expiration count so its readiness
// clears.
func timerRead(fd int, buf []byte) { _, _ = syscall.Read(fd, buf) }

// SocketPair returns a connected unix stream socket pair, both ends
// non-blocking and close-on-exec.
func SocketPair() (a, b int, err error) {
	p, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, -1, err
	}
	return p[0], p[1], nil
}

const spliceFlags = 0x1 | 0x2 // SPLICE_F_MOVE | SPLICE_F_NONBLOCK

// Splice moves up to n bytes from rfd to wfd without leaving the kernel
// (splice(2), non-blocking). One side must be a pipe.
func Splice(rfd, wfd, n int) (int64, error) {
	return syscall.Splice(rfd, nil, wfd, nil, n, spliceFlags)
}

// Pipe returns a non-blocking, close-on-exec pipe pair.
func Pipe() (r, w int, err error) {
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		return -1, -1, err
	}
	return p[0], p[1], nil
}
