package serve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/drop"
	"repro/internal/netstream"
	"repro/internal/stream"
	"repro/internal/trace"
)

// replaySender is the reference the cohort plans are held to: one session
// at B = R·delay driven through a bare netstream.Sender against a capture
// buffer, offering each step's arrivals with freshly synthesized payloads
// and writing End in the tick that drains the buffer past the horizon. It
// returns the exact byte stream plus the step and drop counts.
func replaySender(t *testing.T, clip *trace.Clip, rate, delay int, policy drop.Factory) (wire []byte, steps, dropped int) {
	t.Helper()
	st, err := trace.WholeFrameStream(clip, trace.PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	snd, err := netstream.NewSender(&buf, netstream.SenderConfig{
		ServerBuffer: rate * delay, Rate: rate, Delay: delay, Policy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; ; step++ {
		var offers []netstream.Offered
		if step <= st.Horizon() {
			offers = netstream.OfferStream(st, step, func(sl stream.Slice) []byte {
				return netstream.SynthPayload(sl.ID, sl.Size)
			})
		}
		stats, err := snd.Tick(offers)
		if err != nil {
			t.Fatalf("reference step %d: %v", step, err)
		}
		dropped += len(stats.Dropped)
		if step+1 > st.Horizon() && snd.Backlog() == 0 {
			if err := netstream.WriteEnd(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), step + 1, dropped
		}
	}
}

// captureSession runs one client over net.Pipe against eng.Handle: it
// sends Hello for the delay, checks the Accept, and returns every byte the
// engine wrote after it, up to the close that ends the session.
func captureSession(eng *Engine, delay int) ([]byte, error) {
	server, client := net.Pipe()
	defer client.Close()
	handled := make(chan error, 1)
	go func() { handled <- eng.Handle(server) }()
	if err := netstream.WriteHello(client, netstream.Hello{DesiredDelay: uint32(delay)}); err != nil {
		return nil, err
	}
	msg, err := netstream.ReadMsg(client)
	if err != nil {
		return nil, err
	}
	if msg.Accept == nil || int(msg.Accept.Delay) != delay || int(msg.Accept.ServerBuffer) != eng.Rate()*delay {
		return nil, fmt.Errorf("accept %+v, want delay %d, B = %d", msg.Accept, delay, eng.Rate()*delay)
	}
	wire, err := io.ReadAll(client)
	if err != nil {
		return nil, err
	}
	return wire, <-handled
}

// TestCohortGoldenEquivalence is the contract of the compute-once layer:
// for every policy, link provisioning and negotiated delay, the bytes a
// client receives through Engine.Handle must be identical to a reference
// netstream.Sender replay at B = R·D, and the session's reported steps and
// drops — read off the shared plan — must match the replay's counters.
func TestCohortGoldenEquivalence(t *testing.T) {
	clip := testClip(t, 40)
	policies := []struct {
		name    string
		factory drop.Factory
	}{
		{"greedy", drop.Greedy},
		{"taildrop", drop.TailDrop},
		{"headdrop", drop.HeadDrop},
		{"random", drop.Random(7)},
	}
	// Rate factors below 1 force drops.
	for _, p := range policies {
		for _, rateFactor := range []float64{0.8, 1.0, 2.0} {
			rate := int(rateFactor * clip.AverageRate())
			if rate < 1 {
				rate = 1
			}
			var mu sync.Mutex
			var reported, want []string
			eng, err := New(clip, trace.PaperWeights(), Config{
				Rate:         rate,
				Shards:       2,
				StepDuration: 50 * time.Microsecond,
				MaxDelay:     16,
				Policy:       p.factory,
				OnSessionDone: func(s SessionStats, err error) {
					if err != nil {
						t.Errorf("session %s: %v", s.Remote, err)
					}
					mu.Lock()
					reported = append(reported, fmt.Sprintf("steps=%d dropped=%d", s.Steps, s.Dropped))
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []int{2, 8, 16} {
				name := fmt.Sprintf("%s/rf=%.1f/D=%d", p.name, rateFactor, d)
				got, err := captureSession(eng, d)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				wire, steps, dropped := replaySender(t, clip, rate, d, p.factory)
				if !bytes.Equal(got, wire) {
					t.Fatalf("%s: client received %d bytes, reference Sender wrote %d", name, len(got), len(wire))
				}
				c := eng.cohorts[d].c
				if c.Steps() != steps {
					t.Fatalf("%s: plan runs %d steps, reference %d", name, c.Steps(), steps)
				}
				if got := c.droppedThrough(int32(c.Steps())); got != dropped {
					t.Fatalf("%s: plan dropped %d, reference %d", name, got, dropped)
				}
				want = append(want, fmt.Sprintf("steps=%d dropped=%d", steps, dropped))
			}
			// Close waits for the shard loops, so every OnSessionDone has
			// run; the retirement report must carry the reference counts.
			eng.Close()
			sort.Strings(reported)
			sort.Strings(want)
			if fmt.Sprint(reported) != fmt.Sprint(want) {
				t.Fatalf("%s/rf=%.1f: sessions reported %v, reference %v", p.name, rateFactor, reported, want)
			}
		}
	}
}

// TestCohortStepSlices — the per-step spans of the plan reassemble exactly
// to the full wire stream, and mid-stream cursors see monotone drops.
func TestCohortStepSlices(t *testing.T) {
	clip := testClip(t, 20)
	eng, err := newEngine([]*trace.Clip{clip}, trace.PaperWeights(), Config{
		Rate:         int(clip.AverageRate()),
		Shards:       1,
		StepDuration: time.Millisecond,
		MaxDelay:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c, _, err := eng.cohortFor(8)
	if err != nil {
		t.Fatal(err)
	}
	var joined []byte
	prev := 0
	for s := int32(0); int(s) < c.Steps(); s++ {
		joined = append(joined, c.stepBytes(s)...)
		if d := c.droppedThrough(s + 1); d < prev {
			t.Fatalf("drops not monotone at step %d: %d < %d", s, d, prev)
		} else {
			prev = d
		}
	}
	if !bytes.Equal(joined, c.wire) {
		t.Fatalf("step spans reassemble to %d bytes, wire is %d", len(joined), len(c.wire))
	}
	if c.WireBytes() != len(c.wire) {
		t.Fatalf("WireBytes %d != len(wire) %d", c.WireBytes(), len(c.wire))
	}
}

// TestCohortCache — the plan table is dense over 1..MaxDelay: one build
// per delay, pointer-shared across lookups, distinct delays get distinct
// plans, and every delay up to MaxDelay is cacheable (there is no cap).
func TestCohortCache(t *testing.T) {
	clip := testClip(t, 10)
	eng, err := newEngine([]*trace.Clip{clip}, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       1,
		StepDuration: time.Millisecond,
		MaxDelay:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if len(eng.cohorts) != 9 {
		t.Fatalf("plan table holds %d entries, want MaxDelay+1 = 9", len(eng.cohorts))
	}
	a1, built1, err := eng.cohortFor(4)
	if err != nil || !built1 {
		t.Fatalf("first lookup: built=%v err=%v", built1, err)
	}
	a2, built2, err := eng.cohortFor(4)
	if err != nil || built2 || a1 != a2 {
		t.Fatalf("same delay not shared: %p vs %p (rebuilt: %v, err %v)", a1, a2, built2, err)
	}
	seen := map[*Cohort]bool{}
	for d := 1; d <= 8; d++ {
		c, _, err := eng.cohortFor(d)
		if err != nil {
			t.Fatalf("delay %d: %v", d, err)
		}
		if seen[c] {
			t.Fatalf("delay %d shares a plan with another delay", d)
		}
		seen[c] = true
	}
}

// TestCohortCacheConcurrent — many goroutines racing the same delay must
// share one build, and exactly one of them reports building it (run under
// -race in CI).
func TestCohortCacheConcurrent(t *testing.T) {
	clip := testClip(t, 10)
	eng, err := newEngine([]*trace.Clip{clip}, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       1,
		StepDuration: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const gs = 16
	got := make([]*Cohort, gs)
	var builds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < gs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, built, err := eng.cohortFor(8)
			if err != nil {
				t.Error(err)
			}
			if built {
				builds.Add(1)
			}
			got[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < gs; i++ {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("goroutine %d got %p, goroutine 0 got %p", i, got[i], got[0])
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d goroutines report building the plan, want 1", n)
	}
}

// TestDrainAdmitRace — sessions enqueued concurrently with Drain/Close
// must each be either cleanly served or cleanly rejected: no leaked
// sessWG count (Drain would hang), no double-finish (the WaitGroup would
// panic), no lost accounting. The race detector in CI covers the memory
// side.
func TestDrainAdmitRace(t *testing.T) {
	clip := testClip(t, 5)
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       2,
		StepDuration: 100 * time.Microsecond,
		MaxDelay:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 32
	var handled, rejected atomic.Int64
	var wg, clientWG sync.WaitGroup
	for i := 0; i < clients; i++ {
		server, client := net.Pipe()
		clientWG.Add(1)
		go func(c net.Conn) {
			defer clientWG.Done()
			_, _ = runClient(c, 4) // aborted sessions error; that's fine
			_ = c.Close()
		}(client)
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			if err := eng.Handle(c); err != nil {
				rejected.Add(1)
			} else {
				handled.Add(1)
			}
		}(server)
		if i == clients/2 {
			// Kill the engine while admissions are still racing in.
			go eng.Close()
		}
	}
	wg.Wait()
	eng.Close()
	// Every admitted session must have finished (served or aborted); a
	// leaked sessWG count would hang this drain.
	if !eng.Drain(5 * time.Second) {
		t.Fatal("sessions leaked across Drain/Close: sessWG never drained")
	}
	clientWG.Wait()
	if got, want := int64(eng.ServedSessions()), handled.Load(); got != want {
		t.Fatalf("served %d sessions, admitted %d", got, want)
	}
	if handled.Load()+rejected.Load() != clients {
		t.Fatalf("accounting lost sessions: %d handled + %d rejected != %d",
			handled.Load(), rejected.Load(), clients)
	}
	if eng.ActiveSessions() != 0 {
		t.Fatalf("%d sessions still active after close", eng.ActiveSessions())
	}
}

// armCountConn counts SetWriteDeadline calls; Write always succeeds.
type armCountConn struct {
	net.Conn
	arms int
}

func (c *armCountConn) SetWriteDeadline(time.Time) error { c.arms++; return nil }
func (c *armCountConn) Write(p []byte) (int, error)      { return len(p), nil }

// TestDeadlineWriterArmsOncePerTick — the writer re-arms only when the
// shard tick clock advances, not per flush.
func TestDeadlineWriterArmsOncePerTick(t *testing.T) {
	conn := &armCountConn{}
	var clk tickClock
	w := &deadlineWriter{c: conn, d: time.Second, clk: &clk}
	clk.nanos.Store(100)
	for i := 0; i < 3; i++ {
		if _, err := w.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if conn.arms != 1 {
		t.Fatalf("3 writes in one tick armed %d deadlines, want 1", conn.arms)
	}
	clk.nanos.Store(200)
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if conn.arms != 2 {
		t.Fatalf("next tick armed %d deadlines total, want 2", conn.arms)
	}
}
