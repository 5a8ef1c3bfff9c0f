//go:build !linux

package reactor

import (
	"errors"
	"syscall"
)

// The reactor needs epoll, timerfd and splice; elsewhere Open fails, so
// the engines' New fails fast, and these stubs only keep the packages
// compiling.

var errNoReactor = errors.New("reactor: requires linux (epoll, timerfd, splice)")

type event struct {
	Events uint32
	Fd     int32
}

func epollCreate() (int, error)                      { return -1, errNoReactor }
func epollCtl(epfd, op, fd int, events uint32) error { return errNoReactor }
func epollWait(epfd int, events []event, ms int) int { return 0 }
func closeFd(fd int)                                 { _ = syscall.Close(fd) }
func timerStart(period int64) (int, error)           { return -1, errNoReactor }
func timerRead(fd int, buf []byte)                   {}

func Splice(rfd, wfd, n int) (int64, error) { return 0, syscall.ENOSYS }
func Pipe() (r, w int, err error)           { return -1, -1, errNoReactor }
func SocketPair() (a, b int, err error)     { return -1, -1, errNoReactor }
