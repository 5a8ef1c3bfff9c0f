//go:build !linux

package lb

import "errors"

// The relay reactor needs epoll and splice; elsewhere New fails fast and
// these stubs only keep the package compiling.

var errNoReactor = errors.New("lb: the relay reactor requires linux (epoll, splice)")

type poller struct{}

func newPoller() (*poller, error) { return nil, errNoReactor }

func (p *poller) close() {}

func (sh *shard) run()                                   { sh.eng.loopWG.Done() }
func (sh *shard) startRelay(s *session, now int64) error { return errNoReactor }
func (sh *shard) closeRelay(s *session)                  {}
