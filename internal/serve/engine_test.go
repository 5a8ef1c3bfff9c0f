package serve

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/netstream"
	"repro/internal/trace"
)

func testClip(t testing.TB, frames int) *trace.Clip {
	t.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.Frames = frames
	cfg.MaxFrame = 30
	cfg.MeanI, cfg.MeanP, cfg.MeanB = 20, 14, 6
	clip, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

// tcpPair returns both ends of one loopback TCP connection: the engine's
// socket path.
func tcpPair(t testing.TB) (server, client net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return server, client
}

// clientResult is what one load-generating client observed.
type clientResult struct {
	stats  netstream.PlayStats
	played map[int]bool // slice IDs delivered complete and on time
}

// runClient drives one receive session against conn and records the exact
// set of played slice IDs.
func runClient(conn net.Conn, delay int) (clientResult, error) {
	res := clientResult{played: map[int]bool{}}
	stats, err := netstream.Receive(conn, 0, delay, 1, func(ev netstream.PlayEvent) {
		for _, sl := range ev.Slices {
			res.played[sl.ID] = true
		}
	})
	res.stats = stats
	return res, err
}

// runEngine serves `clients` concurrent sessions over loopback TCP from an
// engine with the given shard count and returns each client's result.
func runEngine(t *testing.T, clip *trace.Clip, shards, clients int) []clientResult {
	t.Helper()
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       shards,
		StepDuration: 200 * time.Microsecond,
		MaxDelay:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	results := make([]clientResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		server, client := tcpPair(t)
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			results[i], errs[i] = runClient(c, 8)
			_ = c.Close()
		}(i, client)
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			if err := eng.Handle(c); err != nil {
				t.Errorf("handle: %v", err)
			}
		}(server)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if !eng.Drain(5 * time.Second) {
		t.Fatal("drain timed out with no sessions left")
	}
	if got := eng.ServedSessions(); got != clients {
		t.Errorf("served %d sessions, want %d", got, clients)
	}
	return results
}

// TestShardCountInvariance — the determinism analogue of the sweep engine's
// worker-count invariance: the same clip and policy must yield the same
// per-session played/dropped sets whether the engine runs 1 shard or many.
func TestShardCountInvariance(t *testing.T) {
	clip := testClip(t, 30)
	const clients = 6
	one := runEngine(t, clip, 1, clients)
	four := runEngine(t, clip, 4, clients)

	for i := 0; i < clients; i++ {
		a, b := one[i], four[i]
		if len(a.played) != len(b.played) {
			t.Fatalf("client %d: 1-shard played %d slices, 4-shard %d", i, len(a.played), len(b.played))
		}
		//smoothvet:ordered membership check only; any order reaches the same verdict
		for id := range a.played {
			if !b.played[id] {
				t.Fatalf("client %d: slice %d played at 1 shard but not at 4", i, id)
			}
		}
		if a.stats.Incomplete != b.stats.Incomplete || a.stats.LateBytes != b.stats.LateBytes ||
			a.stats.Corrupt != b.stats.Corrupt || a.stats.PlayedBytes != b.stats.PlayedBytes {
			t.Fatalf("client %d: stats diverge across shard counts: %+v vs %+v", i, a.stats, b.stats)
		}
	}
	// And every session of one engine run saw the same stream.
	for i := 1; i < clients; i++ {
		if one[i].stats != one[0].stats {
			t.Errorf("session %d diverged from session 0: %+v vs %+v", i, one[i].stats, one[0].stats)
		}
	}
	// The link rate is 2x the average: nothing should be lost at all.
	if one[0].stats.Incomplete != 0 || one[0].stats.Corrupt != 0 {
		t.Errorf("lossless setup lost data: %+v", one[0].stats)
	}
	if one[0].stats.Played != len(clip.Frames) {
		t.Errorf("played %d of %d frames", one[0].stats.Played, len(clip.Frames))
	}
}

// TestMaxSessionsRejects — the engine refuses connections over the cap and
// accepts again once a slot frees up.
func TestMaxSessionsRejects(t *testing.T) {
	clip := testClip(t, 10)
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       2,
		MaxSessions:  1,
		StepDuration: 200 * time.Microsecond,
		MaxDelay:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	server1, client1 := net.Pipe()
	handled := make(chan error, 1)
	go func() { handled <- eng.Handle(server1) }()
	clientDone := make(chan error, 1)
	go func() {
		_, err := runClient(client1, 4)
		_ = client1.Close()
		clientDone <- err
	}()
	if err := <-handled; err != nil {
		t.Fatalf("first session rejected: %v", err)
	}

	// Second connection while the first is live: over the cap.
	server2, client2 := net.Pipe()
	go func() { _, _ = client2.Read(make([]byte, 1)) }() // observe the close
	if err := eng.Handle(server2); err == nil {
		t.Fatal("session over the cap accepted")
	}
	_ = client2.Close()

	if err := <-clientDone; err != nil {
		t.Fatalf("first client: %v", err)
	}
	// Slot freed: a new session is admitted again.
	server3, client3 := net.Pipe()
	go func() { handled <- eng.Handle(server3) }()
	go func() {
		_, err := runClient(client3, 4)
		_ = client3.Close()
		clientDone <- err
	}()
	if err := <-handled; err != nil {
		t.Fatalf("post-drain session rejected: %v", err)
	}
	if err := <-clientDone; err != nil {
		t.Fatalf("post-drain client: %v", err)
	}
}

// TestDrainRejectsNewSessions — after Drain starts, Handle refuses.
func TestDrainRejectsNewSessions(t *testing.T) {
	clip := testClip(t, 5)
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       1,
		StepDuration: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !eng.Drain(time.Second) {
		t.Fatal("drain of an idle engine timed out")
	}
	server, client := net.Pipe()
	go func() { _, _ = client.Read(make([]byte, 1)) }()
	if err := eng.Handle(server); err == nil {
		t.Error("session accepted while draining")
	}
	_ = client.Close()
}

// TestCloseAbortsInFlight — Close cuts sessions off mid-stream and the
// client sees a mid-stream error rather than a hang.
func TestCloseAbortsInFlight(t *testing.T) {
	clip := testClip(t, 200)
	aborted := make(chan error, 1)
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate:         int(clip.AverageRate()),
		Shards:       1,
		StepDuration: time.Millisecond,
		OnSessionDone: func(_ SessionStats, err error) {
			aborted <- err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go func() { _ = eng.Handle(server) }() // rejection also aborts the client below
	clientErr := make(chan error, 1)
	go func() {
		_, err := runClient(client, 8)
		clientErr <- err
	}()
	// Let the stream get going, then kill the engine.
	time.Sleep(20 * time.Millisecond)
	eng.Close()
	if err := <-aborted; err == nil {
		t.Error("aborted session reported a clean finish")
	}
	if err := <-clientErr; err == nil {
		t.Error("client saw a clean end on an aborted stream")
	}
	_ = client.Close()
}

// rejectedTotal reads serve_sessions_rejected_total.
func rejectedTotal(e *Engine) uint64 {
	return e.Obs().Snapshot(nil).Scalars[e.met.cRejected]
}

// readSignal closes reading on the first Read: the moment Handle has
// passed its admission checks and blocks on the client's Hello.
type readSignal struct {
	net.Conn
	once    sync.Once
	reading chan struct{}
}

func (c *readSignal) Read(p []byte) (int, error) {
	c.once.Do(func() { close(c.reading) })
	return c.Conn.Read(p)
}

// TestMaxSessionsConcurrentHandshakes — the session cap holds across
// handshakes in flight: with MaxSessions 1 and three Handles racing,
// exactly one session is admitted however long the Hellos take. Every
// Handle reaches its Hello read (or returns) before any client speaks, so
// a cap checked before the read but charged after it would admit all
// three.
func TestMaxSessionsConcurrentHandshakes(t *testing.T) {
	clip := testClip(t, 10)
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       1,
		MaxSessions:  1,
		StepDuration: 200 * time.Microsecond,
		MaxDelay:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const n = 3
	clients := make([]net.Conn, n)
	handled := make([]chan error, n)
	for i := range clients {
		server, client := net.Pipe()
		clients[i] = client
		handled[i] = make(chan error, 1)
		sig := &readSignal{Conn: server, reading: make(chan struct{})}
		go func(i int) { handled[i] <- eng.Handle(sig) }(i)
		select {
		case <-sig.reading:
		case err := <-handled[i]:
			handled[i] <- err // returned before reading: keep the verdict
		}
	}
	var clientWG sync.WaitGroup
	for _, c := range clients {
		clientWG.Add(1)
		go func(c net.Conn) {
			defer clientWG.Done()
			defer c.Close()
			// Rejected clients see their pipe closed; the admitted one
			// streams to End. Either way the client just drains.
			if netstream.WriteHello(c, netstream.Hello{DesiredDelay: 4}) == nil {
				_, _ = io.Copy(io.Discard, c)
			}
		}(c)
	}
	admitted := 0
	for i := range handled {
		if err := <-handled[i]; err == nil {
			admitted++
		}
	}
	clientWG.Wait()
	if admitted != 1 {
		t.Fatalf("%d sessions admitted under MaxSessions=1, want exactly 1", admitted)
	}
	if got := rejectedTotal(eng); got != n-1 {
		t.Fatalf("serve_sessions_rejected_total = %d, want %d", got, n-1)
	}
}

// TestServeReceiveOverPipe exercises the engine and the client receive
// loop end to end over an in-memory full-duplex connection.
func TestServeReceiveOverPipe(t *testing.T) {
	clip := testClip(t, 40)
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       1,
		StepDuration: 200 * time.Microsecond,
		MaxDelay:     16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	server, client := net.Pipe()
	defer client.Close()
	handled := make(chan error, 1)
	go func() { handled <- eng.Handle(server) }()

	var events int
	stats, err := netstream.Receive(client, 0, 8, 1, func(netstream.PlayEvent) { events++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := <-handled; err != nil {
		t.Fatalf("handle: %v", err)
	}
	if stats.Delay != 8 {
		t.Errorf("negotiated delay = %d, want 8", stats.Delay)
	}
	if stats.Corrupt != 0 {
		t.Errorf("%d corrupt slices", stats.Corrupt)
	}
	// The link rate is 2x the average: with delay 8 nothing should drop.
	if stats.Played != len(clip.Frames) {
		t.Errorf("played %d of %d frames (incomplete %d)", stats.Played, len(clip.Frames), stats.Incomplete)
	}
	if events == 0 {
		t.Error("no play events delivered")
	}
	if stats.LateBytes != 0 {
		t.Errorf("late bytes: %d", stats.LateBytes)
	}
}

// TestServeRejectsGarbageHello — a Hello with a bad magic is refused,
// closed and counted.
func TestServeRejectsGarbageHello(t *testing.T) {
	clip := testClip(t, 5)
	eng, err := New(clip, trace.PaperWeights(), Config{Rate: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var hello bytes.Buffer
	if err := netstream.WriteHello(&hello, netstream.Hello{DesiredDelay: 4}); err != nil {
		t.Fatal(err)
	}
	garbage := hello.Bytes()
	for i := 1; i < len(garbage); i++ {
		garbage[i] = 0 // keep the message type, zero the magic and version
	}
	server, client := net.Pipe()
	defer client.Close()
	handled := make(chan error, 1)
	go func() { handled <- eng.Handle(server) }()
	if err := client.SetWriteDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(garbage); err != nil {
		t.Fatal(err)
	}
	err = <-handled
	if !errors.Is(err, netstream.ErrBadMagic) {
		t.Fatalf("garbage hello: got %v, want ErrBadMagic", err)
	}
	if got := rejectedTotal(eng); got != 1 {
		t.Fatalf("serve_sessions_rejected_total = %d, want 1", got)
	}
}

// TestServeRejectsBadRate — an engine needs a positive link rate.
func TestServeRejectsBadRate(t *testing.T) {
	clip := testClip(t, 5)
	if _, err := New(clip, trace.PaperWeights(), Config{Rate: 0}); err == nil {
		t.Error("rate 0 accepted")
	}
}
