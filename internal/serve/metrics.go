package serve

import "repro/internal/obs"

// engineMetrics bundles the engine's obs registry with the slot IDs its
// shards record through. Registration order fixes the /metrics output
// order, so new series belong at the end of newEngineMetrics.
type engineMetrics struct {
	reg *obs.Registry

	// Shard-recorded counters.
	cAdmitted       obs.CounterID
	cRetired        obs.CounterID
	cFailed         obs.CounterID
	cDeadlineExpiry obs.CounterID

	// Acceptor-recorded (global) counters.
	cRejected   obs.CounterID
	cCohortHits obs.CounterID
	cCohortMiss obs.CounterID

	// Gauges and distributions.
	gActive  obs.GaugeID
	hStepDur obs.HistID

	// Tick schedule.
	hTickLate    obs.HistID
	cMissedTicks obs.CounterID
}

// newEngineMetrics registers the serving engine's metric set (plus any
// daemon-provided extras) and freezes it for the given shard count.
func newEngineMetrics(e *Engine, shards int, extra func(*obs.Builder)) *engineMetrics {
	var b obs.Builder
	m := &engineMetrics{}
	m.cAdmitted = b.Counter("serve_sessions_admitted_total", "Sessions registered on a shard after handshake.")
	m.cRetired = b.Counter("serve_sessions_retired_total", "Sessions that drained cleanly to End.")
	m.cFailed = b.Counter("serve_sessions_failed_total", "Sessions that ended with an error (write failure, hangup, late client, abort).")
	m.cDeadlineExpiry = b.Counter("serve_write_deadline_expiries_total", "Sessions retired because the client fell behind its playout deadline: bytes it had not taken were more than D steps old.")
	m.cRejected = b.Counter("serve_sessions_rejected_total", "Connections refused before registration (draining, session limit, bad handshake).")
	m.cCohortHits = b.Counter("serve_cohort_hits_total", "Handshakes that reused the cached plan for their delay.")
	m.cCohortMiss = b.Counter("serve_cohort_misses_total", "Handshakes that built the plan for their delay.")
	m.gActive = b.Gauge("serve_sessions_active", "Sessions currently registered, summed across shards.")
	m.hStepDur = b.Histogram("serve_step_duration_us", "Wall-clock duration of one shard tick (all sessions stepped), microseconds.")
	b.Func("serve_draining", "1 while the engine refuses new sessions (Drain/Close in progress).", func() int64 {
		if e.draining.Load() {
			return 1
		}
		return 0
	})
	m.hTickLate = b.Histogram("serve_tick_lateness_us", "How far each shard tick started behind its schedule start + k·StepDuration, microseconds.")
	m.cMissedTicks = b.Counter("serve_missed_ticks_total", "Shard ticks that started a full step or more behind schedule; each still runs (catch-up).")
	if extra != nil {
		extra(&b)
	}
	m.reg = obs.Build(&b, shards)
	return m
}

// noteSessionEnd records one session retirement into the shard's slots
// and flight ring: counters, the playout-deadline classifier, and the
// retire/error lifecycle event. Runs on the shard goroutine, downstream
// of the noalloc step path, with the caller's stamp.
//
//smoothvet:noalloc
func (sh *shard) noteSessionEnd(s *session, steps int, err error, now int64) {
	m := sh.eng.met
	if err == nil {
		sh.met.Inc(m.cRetired)
		sh.rec.Record(now, obs.EvRetire, s.id, int64(steps))
		return
	}
	sh.met.Inc(m.cFailed)
	if err == errLate {
		sh.met.Inc(m.cDeadlineExpiry)
		sh.rec.Record(now, obs.EvDeadlineExpiry, s.id, int64(s.tick))
	}
	sh.rec.Record(now, obs.EvError, s.id, int64(steps))
}

// Obs returns the engine's metric registry for diag endpoints and tests.
func (e *Engine) Obs() *obs.Registry { return e.met.reg }

// StepDurationHist returns the shard-step-duration histogram's slot ID —
// the series a serving-side SLO accountant windows.
func (e *Engine) StepDurationHist() obs.HistID { return e.met.hStepDur }

// FlightRecorders returns the per-shard flight-recorder rings, indexed by
// shard.
func (e *Engine) FlightRecorders() []*obs.FlightRecorder { return e.recs }
