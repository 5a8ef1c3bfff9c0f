// Package shardconfinedata seeds confinement violations around a marked
// shard type, next to the sanctioned ownership idioms.
package shardconfinedata

import "sync"

// shard is goroutine-confined: one reactor goroutine owns each instance.
//
//smoothvet:confined
type shard struct {
	mu       sync.Mutex //smoothvet:shared
	incoming chan int   //smoothvet:shared
	draining bool
	sessions []int
	count    int
}

type engine struct {
	shards []*shard
}

// newEngine constructs shards and hands each to its goroutine.
func newEngine(n int) *engine {
	e := &engine{}
	for i := 0; i < n; i++ {
		sh := &shard{incoming: make(chan int)}
		sh.sessions = make([]int, 0, 8) // ok: fresh value, construction
		//smoothvet:transfer
		go sh.run()
		e.shards = append(e.shards, sh)
	}
	return e
}

func (e *engine) launchUnmarked() {
	sh := &shard{}
	go sh.run() // want `go sh\.run hands the confined receiver to a new goroutine without //smoothvet:transfer`
}

// run owns its receiver.
func (sh *shard) run() {
	sh.count++         // ok: receiver is owned
	sh.draining = true // ok
}

// crossStore writes another shard's state: the classic violation.
func (e *engine) crossStore(i int) {
	e.shards[i].draining = true // want `store to field draining of confined \*shard through a foreign reference`
	sh := e.shards[i]
	sh.count++ // want `store to field count of confined \*shard through a foreign reference`
	sh.mu.Lock()
	sh.sessions = nil // want `store to field sessions of confined \*shard through a foreign reference`
	sh.mu.Unlock()
}

// sharedFieldOK: cross-goroutine traffic through marked fields is fine.
func (e *engine) sharedFieldOK(i int, v int) {
	sh := e.shards[i]
	sh.incoming <- v // ok: shared channel field
	sh.mu.Lock()     // ok: shared mutex field
	sh.mu.Unlock()
}

// flowJoin: a reference that is foreign on one path is foreign at the join.
func (e *engine) flowJoin(mine *shard, steal bool) {
	sh := mine
	if steal {
		sh = e.shards[0]
	}
	sh.count++ // want `store to field count of confined \*shard through a foreign reference`
}

// loopFlow: the foreign binding flows around the loop back edge.
func (e *engine) loopFlow() {
	var sh *shard
	for i := 0; i < 4; i++ {
		if sh != nil {
			sh.count++ // want `store to field count of confined \*shard through a foreign reference`
		}
		sh = e.shards[i]
	}
}

// rangeForeign: ranging over a shared slice yields foreign references.
func (e *engine) rangeForeign() {
	for _, sh := range e.shards {
		sh.draining = true // want `store to field draining of confined \*shard through a foreign reference`
	}
}

// rangeOwned: ranging over a locally built slice keeps ownership.
func rangeOwned(n int) []*shard {
	shards := make([]*shard, 0, n)
	for i := 0; i < n; i++ {
		shards = append(shards, &shard{})
	}
	for _, sh := range shards {
		sh.count = i0() // ok: owned via local slice
	}
	return shards
}

func i0() int { return 0 }

// closureCapture: goroutine closures must not capture confined values.
func (sh *shard) closureCapture() {
	go func() { // want `goroutine closure captures confined value sh without //smoothvet:transfer`
		sh.count++
	}()
}

// sendUnmarked: confined values cross channels only with a transfer marker.
func sendUnmarked(ch chan *shard, sh *shard) {
	ch <- sh // want `send of confined \*shard over a channel without //smoothvet:transfer`
}

func sendMarked(ch chan *shard, sh *shard) {
	ch <- sh //smoothvet:transfer
}

// afterHandoff: the sender must not touch the value past the hand-off.
func afterHandoff(ch chan *shard) {
	sh := &shard{}
	sh.count = 1 // ok: still owned
	ch <- sh     //smoothvet:transfer
	sh.count = 2 // want `store to field count of confined \*shard through a foreign reference`
}

// receiveOwns: the receiving goroutine owns what it takes off the channel.
func receiveOwns(ch chan *shard) {
	sh := <-ch
	sh.count++ // ok: transferred in
	for got := range ch {
		got.draining = true // ok: transferred in
	}
}

// shardMetrics mirrors the observability layer's per-shard slot row: the
// live slots are plain memory owned by the shard goroutine, the published
// mirror is the sanctioned cross-goroutine surface.
//
//smoothvet:confined
type shardMetrics struct {
	live []uint64
	pub  []uint64 //smoothvet:shared
}

type registry struct {
	rows []*shardMetrics
}

// recordOwned: the shard goroutine bumping its own slot is the hot path.
func recordOwned(m *shardMetrics, slot int) {
	m.live[slot]++ // ok: receiver-owned row
}

// scrapeStore: a scraper incrementing another shard's live slot is the
// exact bug the metrics layer exists to prevent — merge at scrape instead.
func (r *registry) scrapeStore(i, slot int) {
	r.rows[i].live[slot]++ // want `store to field live of confined \*shardMetrics through a foreign reference`
}

// scrapeSharedOK: the published mirror is marked shared; scrape-side
// writes through it (atomics in the real layer) are sanctioned.
func (r *registry) scrapeSharedOK(i, slot int, v uint64) {
	r.rows[i].pub[slot] = v // ok: shared field
}

// relayShard mirrors the front tier's relay shard: the fd-indexed
// placement table maps live fds to sessions and is touched only by the
// shard's reactor goroutine; placements arrive through the shared
// incoming queue.
//
//smoothvet:confined
type relayShard struct {
	mu       sync.Mutex //smoothvet:shared
	incoming []int      //smoothvet:shared
	table    []int
}

type frontTier struct {
	relays []*relayShard
}

// placeDirect: a placement worker writing another shard's placement
// table directly instead of queueing through incoming — the cross-shard
// write the front tier's enqueue/admit split exists to prevent.
func (e *frontTier) placeDirect(i, fd int) {
	e.relays[i].table = append(e.relays[i].table, fd) // want `store to field table of confined \*relayShard through a foreign reference`
}

// placeQueued is the sanctioned hand-off: append to the shared queue
// under the shared mutex; the owning goroutine moves it into the table.
func (e *frontTier) placeQueued(i, fd int) {
	sh := e.relays[i]
	sh.mu.Lock()
	sh.incoming = append(sh.incoming, fd) // ok: shared field under the shared mutex
	sh.mu.Unlock()
}

// drainOwned: the reactor goroutine moving queued placements into its
// own table.
func (sh *relayShard) drainOwned() {
	sh.mu.Lock()
	pend := sh.incoming
	sh.incoming = nil // ok: shared field
	sh.mu.Unlock()
	sh.table = append(sh.table, pend...) // ok: receiver-owned
}

// core is a generic reactor core, the shape the engines' shards embed:
// each instance is owned by its reactor goroutine; sessions arrive
// through the shared queue.
//
//smoothvet:confined
type core[S comparable] struct {
	mu       sync.Mutex //smoothvet:shared
	incoming []S        //smoothvet:shared
	live     []S
	cur      int
}

type conn struct{ fd int }

// insert is the owner's store through its receiver.
func (c *core[S]) insert(s S) {
	c.live = append(c.live, s) // ok: receiver-owned
	c.cur++                    // ok
}

// enqueue is the sanctioned hand-off through the shared fields.
func (c *core[S]) enqueue(s S) {
	c.mu.Lock()
	c.incoming = append(c.incoming, s) // ok: shared field of the generic type
	c.mu.Unlock()
}

type coreTier struct {
	cores []*core[*conn]
}

// stealInstantiated stores through an instantiated core[*conn] reached
// from another structure: the cross-goroutine store.
func (t *coreTier) stealInstantiated(i int) {
	t.cores[i].cur = 0 // want `store to field cur of confined \*core\[\*conn\] through a foreign reference`
	c := t.cores[i]
	c.live = nil // want `store to field live of confined \*core\[\*conn\] through a foreign reference`
	c.mu.Lock()
	c.incoming = nil // ok: shared field
	c.mu.Unlock()
}

// engineShard embeds the core without a marker of its own: holding
// confined state by value makes it confined too.
type engineShard struct {
	core[*conn]
	name string
}

type engineTier struct {
	shards []*engineShard
}

// stealPromoted stores to another shard's state, promoted core fields
// included: promotion must not hide the confined owner.
func (t *engineTier) stealPromoted(i int) {
	sh := t.shards[i]
	sh.cur = 0        // want `store to field cur of confined \*engineShard through a foreign reference`
	sh.live = nil     // want `store to field live of confined \*engineShard through a foreign reference`
	sh.name = "x"     // want `store to field name of confined \*engineShard through a foreign reference`
	sh.incoming = nil // ok: shared field of the embedded core
}

// runOwned: the shard's own methods store through promoted fields freely.
func (sh *engineShard) runOwned() {
	sh.cur++
	sh.name = "run"
}
