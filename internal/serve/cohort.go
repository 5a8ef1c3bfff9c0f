package serve

import (
	"sync"

	"repro/internal/netstream"
)

// The cohort schedule cache is the engine's compute-once-serve-many layer.
// Per-session output is a pure function of (clips, rate, delay, buffer,
// policy) — see the determinism contract in the package comment. Rate,
// clips and policy are engine-wide, and negotiation always yields
// buffer = rate·delay, so the delay alone keys a schedule: there is
// exactly one schedule to compute and one byte stream to encode per
// delay. A Cohort memoizes both: the full per-step send/drop plan of a
// session, replayed once through the netstream.Sender + core.Server
// machinery, with every step's batched wire flush captured into one
// immutable buffer. Serving a session then costs a slice index and a
// Write of pre-encoded bytes; no per-session smoothing buffer, drop
// policy, or encoder exists at all.
//
// Cohorts are immutable after construction and shared by every session of
// the cohort across all shards; the aliasing is safe because nothing ever
// writes to a cohort's wire buffer.

// Cohort is one precomputed serving plan: the concatenated wire bytes of
// every step's batched flush (the final step additionally carries the End
// marker) plus the cumulative drop counts a Sender reports step by step.
//
//smoothvet:frozen immutable once published through the cohort cache
type Cohort struct {
	// wire holds every step's encoded flush back to back; step i's bytes
	// are wire[off[i]:off[i+1]]. The last step's bytes include the
	// end-of-stream marker, so a completed session's byte stream is
	// exactly wire — proven byte-identical to a netstream.Sender replay by
	// TestCohortGoldenEquivalence.
	wire []byte
	off  []int32
	// drops[i] is the total number of slices shed by the smoothing buffer
	// through step i inclusive.
	drops []int32
}

// Steps returns the number of model steps a cohort session runs.
func (c *Cohort) Steps() int { return len(c.off) - 1 }

// WireBytes returns the total size of the pre-encoded stream.
func (c *Cohort) WireBytes() int { return len(c.wire) }

// stepBytes returns the pre-encoded flush of one step. The result aliases
// the cohort's immutable buffer; callers must not mutate it.
//
//smoothvet:aliased
//smoothvet:noalloc
func (c *Cohort) stepBytes(step int32) []byte {
	return c.wire[c.off[step]:c.off[step+1]]
}

// droppedThrough returns the slices shed through the given number of
// completed steps.
//
//smoothvet:noalloc
func (c *Cohort) droppedThrough(steps int32) int {
	if steps <= 0 {
		return 0
	}
	return int(c.drops[steps-1])
}

// planRecorder captures a Sender's writes, tracking step boundaries so the
// batched flush of each Tick lands in its own wire span.
type planRecorder struct {
	wire []byte
	off  []int32
}

func (r *planRecorder) Write(p []byte) (int, error) {
	r.wire = append(r.wire, p...)
	return len(p), nil
}

func (r *planRecorder) endStep() { r.off = append(r.off, int32(len(r.wire))) }

// buildCohort replays one full session at the given delay (and so
// B = R·delay) through a Sender into a recorder, producing the shared
// plan. It runs once per delay, under the cache entry's once, at the first
// Handle that negotiates that delay.
func (e *Engine) buildCohort(delay int) (*Cohort, error) {
	rec := &planRecorder{off: []int32{0}}
	snd, err := netstream.NewSender(rec, netstream.SenderConfig{
		ServerBuffer: e.cfg.Rate * delay,
		Rate:         e.cfg.Rate,
		Delay:        delay,
		Policy:       e.cfg.Policy,
	})
	if err != nil {
		return nil, err
	}
	c := &Cohort{}
	horizon := e.mux.Horizon()
	dropped := 0
	for step := 0; ; step++ {
		// Tick copies the slices out and keeps only the shared payloads.
		stats, err := snd.Tick(e.mux.Offers(step))
		if err != nil {
			return nil, err
		}
		dropped += len(stats.Dropped)
		done := step+1 > horizon && snd.Backlog() == 0
		if done {
			// The End marker leaves in the same tick as the final flush.
			if err := netstream.WriteEnd(rec); err != nil {
				return nil, err
			}
		}
		rec.endStep()
		c.drops = append(c.drops, int32(dropped))
		if done {
			break
		}
	}
	c.wire, c.off = rec.wire, rec.off
	return c, nil
}

// cohortEntry is one slot of the engine's dense per-delay plan table.
// Concurrent Handles at the same delay block on one build; Handles at
// other delays proceed.
type cohortEntry struct {
	once sync.Once
	c    *Cohort
	err  error
}

// cohortFor returns the shared cohort for a negotiated delay, building it
// on first use; built reports whether this call ran the build. A delay
// whose plan cannot be built is not retried: every later call returns the
// same error.
func (e *Engine) cohortFor(delay int) (c *Cohort, built bool, err error) {
	ent := &e.cohorts[delay]
	ent.once.Do(func() {
		ent.c, ent.err = e.buildCohort(delay)
		built = true
	})
	return ent.c, built, ent.err
}
