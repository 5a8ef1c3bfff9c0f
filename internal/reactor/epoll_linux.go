//go:build linux

package reactor

import "syscall"

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
