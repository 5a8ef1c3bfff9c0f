package serve

import (
	"hash/fnv"
	"io"
	"net"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/trace"
)

const (
	isoStep  = 25 * time.Millisecond
	isoDelay = 8
)

// isoClip is a clip whose steps carry a few hundred bytes, so a client
// that stops reading fills a small socket within a few dozen steps.
func isoClip(t *testing.T) *trace.Clip {
	t.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 60
	cfg.MeanI, cfg.MeanP, cfg.MeanB = 1760, 1080, 440
	cfg.MaxFrame = 2400
	clip, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

// readStream handshakes at isoDelay and reads every message to End. It
// returns an FNV-64a digest of the bytes after the Accept and the largest
// wall-clock gap between consecutive data messages.
func readStream(conn net.Conn) (digest uint64, maxGap time.Duration, err error) {
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, 0, err
	}
	if err := netstream.WriteHello(conn, netstream.Hello{DesiredDelay: isoDelay}); err != nil {
		return 0, 0, err
	}
	if _, err := netstream.ReadMsg(conn); err != nil {
		return 0, 0, err
	}
	h := fnv.New64a()
	r := io.TeeReader(conn, h)
	var last time.Time
	for {
		msg, err := netstream.ReadMsg(r)
		if err != nil {
			return 0, 0, err
		}
		if msg.End {
			return h.Sum64(), maxGap, nil
		}
		now := time.Now()
		if !last.IsZero() && now.Sub(last) > maxGap {
			maxGap = now.Sub(last)
		}
		last = now
	}
}

// stuckDial connects with a small receive buffer, sends a Hello and never
// reads again.
func stuckDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	d := net.Dialer{Control: func(_, _ string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4096)
		}); err != nil {
			return err
		}
		return serr
	}}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := netstream.WriteHello(conn, netstream.Hello{DesiredDelay: isoDelay}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// isoResult is what one run of TestStuckClientCostsOnlyItself observed.
type isoResult struct {
	digest uint64
	maxGap time.Duration
	eng    *Engine
}

// isoRun serves the healthy client, plus a stuck one when stuck is set,
// from a one-shard engine; stuckFirst admits the stuck client first. The
// engine is closed on return.
func isoRun(t *testing.T, clip *trace.Clip, stuck, stuckFirst bool) isoResult {
	t.Helper()
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       1,
		StepDuration: isoStep,
		MaxDelay:     isoDelay,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accept := func() net.Conn {
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	var stuckConn net.Conn
	admitStuck := func() {
		stuckConn = stuckDial(t, ln.Addr().String())
		server := accept()
		// A small send buffer too, so the stuck socket fills quickly.
		if err := server.(*net.TCPConn).SetWriteBuffer(4096); err != nil {
			t.Fatal(err)
		}
		if err := eng.Handle(server); err != nil {
			t.Fatalf("stuck client rejected: %v", err)
		}
	}
	if stuck && stuckFirst {
		admitStuck()
	}
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	type outcome struct {
		digest uint64
		gap    time.Duration
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		d, g, err := readStream(client)
		done <- outcome{d, g, err}
	}()
	if err := eng.Handle(accept()); err != nil {
		t.Fatalf("healthy client rejected: %v", err)
	}
	if stuck && !stuckFirst {
		admitStuck()
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("healthy client: %v", out.err)
	}
	if !eng.Drain(5 * time.Second) {
		t.Fatal("sessions still live after the healthy stream ended")
	}
	if stuckConn != nil {
		_ = stuckConn.Close()
	}
	return isoResult{digest: out.digest, maxGap: out.gap, eng: eng}
}

// openFds counts this process's open file descriptors.
func openFds(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open fds: %v", err)
	}
	return len(ents)
}

// settles polls until f reports at most want, for up to two seconds, and
// returns its last reading.
func settles(want int, f func() int) int {
	got := f()
	for end := time.Now().Add(2 * time.Second); got > want && time.Now().Before(end); got = f() {
		time.Sleep(10 * time.Millisecond)
	}
	return got
}

// TestStuckClientCostsOnlyItself — a client that handshakes and never
// reads shares a shard with a healthy one. The healthy client must get
// its stream on time and byte for byte as if alone, and the stuck one
// must be retired as late within D + 2 steps after its socket fills,
// counted as a playout-deadline expiry, with every fd and goroutine
// released — in both admission orders.
func TestStuckClientCostsOnlyItself(t *testing.T) {
	clip := isoClip(t)
	solo := isoRun(t, clip, false, false)
	for _, order := range []struct {
		name       string
		stuckFirst bool
	}{{"stuck-first", true}, {"healthy-first", false}} {
		t.Run(order.name, func(t *testing.T) {
			// The solo run has already started the runtime's poller, so
			// these are the process's steady-state counts.
			fds, goroutines := openFds(t), runtime.NumGoroutine()
			got := isoRun(t, clip, true, order.stuckFirst)
			if got.digest != solo.digest {
				t.Errorf("healthy digest %x, solo run %x", got.digest, solo.digest)
			}
			if got.maxGap > 3*isoStep {
				t.Errorf("healthy client waited %v between messages, more than 3 steps (%v)", got.maxGap, 3*isoStep)
			}
			eng := got.eng
			if n := eng.Obs().Snapshot(nil).Scalars[eng.met.cDeadlineExpiry]; n != 1 {
				t.Errorf("serve_write_deadline_expiries_total = %d, want 1", n)
			}
			var stall, expiry *obs.Event
			events := eng.FlightRecorders()[0].CopyInto(nil)
			for i := range events {
				if events[i].Kind == obs.EvDeadlineExpiry {
					if expiry != nil {
						t.Fatal("two sessions expired; only the stuck one should")
					}
					expiry = &events[i]
				}
			}
			if expiry == nil {
				t.Fatal("no deadline-expiry event in the shard's flight ring")
			}
			for i := range events {
				if e := &events[i]; e.Kind == obs.EvStall && e.Sess == expiry.Sess && e.Seq < expiry.Seq {
					stall = e
				}
			}
			if stall == nil {
				t.Fatal("the expired session never stalled")
			}
			t.Logf("stall at tick %d, expiry at %d", stall.Arg, expiry.Arg)
			if late := expiry.Arg - stall.Arg; late > isoDelay+2 {
				t.Errorf("stuck session retired %d steps after its socket filled, want at most D+2 = %d", late, isoDelay+2)
			}
			if n := settles(fds, func() int { return openFds(t) }); n > fds {
				t.Errorf("%d fds open after close, %d before", n, fds)
			}
			if n := settles(goroutines, runtime.NumGoroutine); n > goroutines {
				t.Errorf("%d goroutines after close, %d before", n, goroutines)
			}
		})
	}
}

// TestShimClientHangsUp — a conn without a socket fd (net.Pipe) goes
// through the socketpair shim; a client that hangs up mid-stream fails
// only its session, and the shim's copier goroutine exits.
func TestShimClientHangsUp(t *testing.T) {
	clip := testClip(t, 200)
	ended := make(chan error, 1)
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate:          2 * int(clip.AverageRate()),
		Shards:        1,
		StepDuration:  time.Millisecond,
		MaxDelay:      8,
		OnSessionDone: func(_ SessionStats, err error) { ended <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	goroutines := runtime.NumGoroutine()
	server, client := net.Pipe()
	handled := make(chan error, 1)
	go func() { handled <- eng.Handle(server) }()
	if err := netstream.WriteHello(client, netstream.Hello{DesiredDelay: 8}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // the Accept and two data messages
		if _, err := netstream.ReadMsg(client); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-handled; err != nil {
		t.Fatalf("handle: %v", err)
	}
	_ = client.Close()
	select {
	case err := <-ended:
		if err == nil {
			t.Fatal("a session whose client hung up reported a clean finish")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the session outlived its client's hang-up")
	}
	if n := settles(0, eng.ActiveSessions); n != 0 {
		t.Errorf("%d sessions active after the hang-up", n)
	}
	if n := settles(goroutines, runtime.NumGoroutine); n > goroutines {
		t.Errorf("%d goroutines after the hang-up, %d before: the shim's copier leaked", n, goroutines)
	}
}
