package obs

import (
	"io"
	"sync"
)

// EventKind tags one session-lifecycle event in a flight recorder ring.
type EventKind uint8

const (
	// EvAdmit marks a session entering a shard's active set.
	EvAdmit EventKind = iota
	// EvCohortAssign marks a session binding to a cohort schedule plan
	// (arg is the plan's step count).
	EvCohortAssign
	// EvFirstWrite marks a session's first payload write (serve) or first
	// decoded message (loadgen); the distance from EvAdmit is startup lag.
	EvFirstWrite
	// EvDeadlineExpiry marks a session retired because its client fell
	// behind its playout deadline: the oldest bytes it had not taken were
	// more than D steps old, so the client would play past them (arg is
	// the session's tick count).
	EvDeadlineExpiry
	// EvRetire marks a clean session exit (arg is steps completed).
	EvRetire
	// EvError marks a failed session exit (arg is a stage/errno tag).
	EvError
	// EvPlace marks a front-tier session placed on a backend (arg is the
	// backend index).
	EvPlace
	// EvReplace marks a front-tier session pulled back off a backend —
	// drain or dial failure — and returned to placement (arg is the
	// backend index it left).
	EvReplace
	// EvBackendDrain marks a backend entering graceful drain (sess is the
	// backend index; no session is involved).
	EvBackendDrain
	// EvStall marks a session whose socket filled: it waits for the
	// client to drain it (arg is the session's tick count).
	EvStall
)

var eventKindNames = [...]string{
	EvAdmit:          "admit",
	EvCohortAssign:   "cohort-assign",
	EvFirstWrite:     "first-write",
	EvDeadlineExpiry: "deadline-expiry",
	EvRetire:         "retire",
	EvError:          "error",
	EvPlace:          "place",
	EvReplace:        "re-place",
	EvBackendDrain:   "backend-drain",
	EvStall:          "stall",
}

// String returns the event kind's wire name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one fixed-size flight-recorder entry: the shard tick stamp
// (engine-monotonic nanos, never a wall-clock read), the session it
// concerns and a kind-specific argument.
type Event struct {
	Tick int64 // shard tick clock, nanos
	Sess uint64
	Arg  int64
	Kind EventKind
	Seq  uint32 // global position, detects wrap in dumps
}

// DefaultFlightRecEvents is the per-shard ring capacity: 4096 events
// (~128 KiB/shard) reach back several full waves at typical densities.
const DefaultFlightRecEvents = 4096

// FlightRecorder is one shard's fixed-size ring of session-lifecycle
// events. Record is the zero-alloc hot-path entry point: the shard
// goroutine is the only writer, and the mutex it takes is contended only
// while a dump copies the ring — never shard-vs-shard. Dumps (SIGUSR1,
// SLO breach, /debug/flightrec) copy the ring under the mutex and render
// outside it.
//
//smoothvet:confined owned by the recording shard goroutine; dumps copy under mu
type FlightRecorder struct {
	//smoothvet:shared guards buf/pos against dump copies
	mu sync.Mutex
	//smoothvet:shared ring storage, copied out under mu
	buf []Event
	//smoothvet:shared next write position (monotonic; wraps via modulo)
	pos uint32
}

// NewFlightRecorder returns a ring holding the most recent n events
// (DefaultFlightRecEvents when n <= 0).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightRecEvents
	}
	return &FlightRecorder{buf: make([]Event, 0, n)}
}

// Record appends one event, overwriting the oldest once the ring is
// full. tick is the shard's tick-clock stamp; Record performs no clock
// reads and no allocation.
//
//smoothvet:noalloc
func (r *FlightRecorder) Record(tick int64, kind EventKind, sess uint64, arg int64) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, Event{Tick: tick, Sess: sess, Arg: arg, Kind: kind, Seq: r.pos})
	} else {
		r.buf[int(r.pos)%len(r.buf)] = Event{Tick: tick, Sess: sess, Arg: arg, Kind: kind, Seq: r.pos}
	}
	r.pos++
	r.mu.Unlock()
}

// CopyInto appends the ring's events, oldest first, to dst and returns
// the extended slice. The copy is taken under the ring's mutex; rendering
// happens on the caller's time.
func (r *FlightRecorder) CopyInto(dst []Event) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) || len(r.buf) == 0 {
		return append(dst, r.buf...)
	}
	head := int(r.pos) % len(r.buf)
	dst = append(dst, r.buf[head:]...)
	return append(dst, r.buf[:head]...)
}

// Len returns the number of events currently held.
func (r *FlightRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many events have been overwritten since the ring
// was created.
func (r *FlightRecorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		return 0
	}
	return uint64(r.pos) - uint64(len(r.buf))
}

// WriteFlightDump renders every recorder's ring as text, one line per
// event in shard-major, oldest-first order:
//
//	shard=0 seq=17 tick=120000000 sess=42 kind=retire arg=300
//
// Ticks are engine-monotonic nanos (offsets within the run, not wall
// time), so two dumps of identical state are byte-identical.
func WriteFlightDump(w io.Writer, recs []*FlightRecorder) error {
	ew := &errWriter{w: w}
	var scratch []Event
	for i, r := range recs {
		if r == nil {
			continue
		}
		scratch = r.CopyInto(scratch[:0])
		ew.printf("# shard %d: %d events, %d dropped\n", i, len(scratch), r.Dropped())
		for _, ev := range scratch {
			ew.printf("shard=%d seq=%d tick=%d sess=%d kind=%s arg=%d\n",
				i, ev.Seq, ev.Tick, ev.Sess, ev.Kind, ev.Arg)
		}
	}
	return ew.err
}

// WriteFlightJSON renders every recorder's ring as a JSON array of event
// objects in the same order as WriteFlightDump.
func WriteFlightJSON(w io.Writer, recs []*FlightRecorder) error {
	ew := &errWriter{w: w}
	ew.printf("[")
	first := true
	var scratch []Event
	for i, r := range recs {
		if r == nil {
			continue
		}
		scratch = r.CopyInto(scratch[:0])
		for _, ev := range scratch {
			if !first {
				ew.printf(",")
			}
			first = false
			ew.printf(`{"shard":%d,"seq":%d,"tick":%d,"sess":%d,"kind":%q,"arg":%d}`,
				i, ev.Seq, ev.Tick, ev.Sess, ev.Kind.String(), ev.Arg)
		}
	}
	ew.printf("]\n")
	return ew.err
}
