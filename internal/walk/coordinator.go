package walk

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
	"github.com/bingo-rw/bingo/internal/rebalance"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// Coordinator instrumentation, resolved once at init. Query latency is
// end to end (launch to retire, queueing included); the credit-stall
// histogram captures each individual router stall, with stalls of at
// least a millisecond also journaled — the ring would drown in entries
// if every microsecond wait were recorded.
var (
	coordQueryNs       = obs.H("bingo_query_seconds", "svc", "coord")
	coordDeepwalkNs    = obs.H("bingo_deepwalk_seconds")
	coordBarrierNs     = obs.H("bingo_barrier_seconds")
	coordIngestBatches = obs.C("bingo_ingest_batches_total", "svc", "coord")
	coordIngestUpdates = obs.C("bingo_ingest_updates_total", "svc", "coord")
	coordCreditStallNs = obs.H("bingo_credit_stall_seconds")
	coordBroadcasts    = obs.C("bingo_broadcasts_total")
	coordMigrations    = obs.C("bingo_migrations_total")
)

// journalStallMin is the credit-stall duration below which a stall is
// counted in the histogram but not journaled.
const journalStallMin = time.Millisecond

// coordSeq distinguishes coordinator sessions in the exporter registry
// (a process can host several, e.g. tests or the in-process demo).
var coordSeq atomic.Uint64

// ErrFabricDown is returned by coordinator-side calls whose shard fabric
// session ended before the reply arrived (a daemon died or the transport
// failed). The fabric admits one *write* session at a time plus any
// number of attached read-coordinators; losing the write session ends
// the service — and every reader's event stream with it.
var ErrFabricDown = errors.New("walk: shard fabric session ended")

// coordinator is the front half of a sharded serving runtime over any
// shard fabric: it launches walkers (queries and bulk runs), routes feed
// batches by owner shard, pushes sync barriers, and consumes the event
// stream (retires and acks) to complete them. ShardedLiveService runs it
// over the in-process fabric or over a wire fabric alike — the
// coordinator cannot tell the difference, which is the point of the
// extraction.
type coordinator struct {
	port fabric.CoordPort
	// plan is the construction-time geometry (Shards and RangeSize never
	// change); planv is the live ownership plan the rebalancer's
	// committed migrations re-point. Routing, walker launches, and the
	// rebalancer all resolve owners through planNow.
	plan  ShardPlan
	planv atomic.Pointer[ShardPlan]
	cfg   ShardedLiveConfig

	feed   chan coordMsg
	master *xrand.RNG // Split-only after construction (reads, no state advance)
	barSeq atomic.Uint64

	// walkers launches queries and bulk walkers and completes them from
	// the retire stream (shared with ReaderService).
	walkers walkerTable

	// ledger is the per-shard routed-update count (written only by the
	// router goroutine; ledMu guards the writes because broadcastNow
	// snapshots the vector from other threads). A copy rides on every
	// published ingest element as the watermark vector the shards'
	// remote-view caches validate against: a view of a shard-o vertex
	// extracted before routed update k to shard o must not survive a
	// watermark that includes k. The same vector rides on reader-bound
	// broadcasts, where the identical validation keeps reader-side hub
	// caches conservative.
	ledMu  sync.Mutex
	ledger []int64

	// bcastMu serializes broadcast assembly so Seq order matches publish
	// order; bcastSeq numbers broadcasts from 1 (readers apply a
	// broadcast iff its Seq is not behind the newest they have seen).
	bcastMu  sync.Mutex
	bcastSeq uint64

	// sendMu serializes Query/Feed/Sync/DeepWalk senders against Close,
	// exactly as in LiveService: senders hold it in read mode across
	// their enqueue.
	sendMu sync.RWMutex
	closed bool

	routing sync.WaitGroup // router loop
	evloop  sync.WaitGroup // event loop

	// mu guards the barrier, migration, and rejoin tables the event loop
	// resolves, and the dead flag that fences new registrations once it
	// has exited.
	mu    sync.Mutex
	dead  bool // event stream ended; nothing will ever complete again
	syncs map[uint64]*barrierWait
	migs  map[uint64]chan *fabric.MigrateDone // in-flight migrations by epoch
	acks  []fabric.Ack                        // latest ack per shard (cumulative tallies)
	// downs marks shards the coordinator currently considers dead (set by
	// the event loop the moment a link dies, cleared by the router at
	// failback): it gates which shards a barrier is published to and
	// which deaths need barrier fixups. rejoins tracks each in-flight
	// rejoin's outstanding block copies.
	downs   []bool
	rejoins map[int]*rejoinState

	// Credit-window flow control (tentpole half 1). routed[s] counts
	// update events (and bootstrap rows) the router has published toward
	// shard s; credited[s] is s's cumulative drain report (monotonic max
	// over EvCredit — credits may arrive reordered across transports).
	// The router blocks in waitCredits while a shard's outstanding window
	// is full, which backs the feed queue up and makes Feed itself block
	// — end-to-end backpressure instead of unbounded daemon ingest
	// queues. credDown lifts the gate for dead links (their drain signal
	// is gone; the death event, not the window, owns them now) and
	// credClosed lifts every gate when the event stream ends.
	window     int64
	credMu     sync.Mutex
	credCond   *sync.Cond
	routed     []int64
	credited   []int64
	credDown   []bool
	credClosed bool
	maxOut     int64 // largest admitted outstanding window (under credMu)
	stallNs    int64 // total router time spent credit-stalled (under credMu)

	// ctrl carries liveness transitions (death, rejoin, failback) into
	// the router goroutine, which priority-drains it: plan flips and
	// their fabric publishes must happen on the router thread to stay
	// ordered against update routing. The event loop never blocks on the
	// feed queue. priming, rejoin bookkeeping, and copySeq are
	// router-owned. copySeq numbers replica-priming copies from 1<<48 so
	// copy epochs can never collide with plan epochs in the recipients'
	// (block, epoch) stash keys.
	ctrl    chan ctrlOp
	priming []bool
	copySeq uint64

	// maxVerts tracks the observed vertex-ID bound (bootstrap sizes via
	// noteVerts, feed batches via the router) — the block-enumeration
	// horizon for replica re-priming.
	maxVerts atomic.Int64

	deaths, rejoinsDone, copiedBlocks atomic.Int64

	// rebStop/rebWg manage the rebalancer watch loop when cfg.Rebalance
	// is on. Close stops the loop and waits for its in-flight migration
	// *before* closing the port — the only migration source is quiescent
	// by the time the block stream tears down, so a clean Close can never
	// strand an extracted block in flight.
	rebStop chan struct{}
	rebWg   sync.WaitGroup

	queries, steps, batches, transfers, local, remote atomic.Int64
	migrations, movedEdges                            atomic.Int64

	// obsKey names this session's shard-sample exporter in the obs
	// registry; Close unregisters it so a dead session's tallies stop
	// appearing on /metrics.
	obsKey string

	errMu sync.Mutex
	err   error
}

// coordMsg is one element of the coordinator's feed queue: an update
// batch to route, or a barrier to push (the shared queue is what orders
// barriers after every batch accepted before them). boot marks a
// snapshot-bootstrap batch: fanned out to every holder replica and
// credit-counted (it occupies queue space) but kept out of the routed
// ledger and the shards' update tallies (it is not a feed event).
type coordMsg struct {
	ups  []graph.Update
	boot bool
	bar  *barrierWait
	mig  *migOp
}

// ctrlOp is one shard-liveness transition handed to the router.
type ctrlOp struct {
	kind  int
	shard int
}

const (
	ctrlDown  = iota // link died: flip the plan, announce, relaunch lost walkers
	ctrlUp           // link rejoined: reset credits, snapshot-prime its replica blocks
	ctrlClear        // priming finished: flip the shard live again, announce
)

// rejoinState tracks one in-flight rejoin's outstanding block copies
// (guarded by coordinator.mu; resolved by EvMigrated Copy reports).
type rejoinState struct {
	shard     int
	remaining int
	failed    bool
	donors    map[int]bool // shards serving as copy donors for this rejoin
}

// migOp is one block migration routed through the feed queue, so its
// offer and commit publishes are ordered against every batch accepted
// before it.
type migOp struct {
	block    uint64
	from, to int
	epoch    uint64
}

// barrierWait tracks one barrier's acknowledgements. The router fills
// sent/acked at publish time: a barrier goes only to shards live at that
// instant, and a shard that dies between publish and ack is force-acked
// by the event loop (synthetic ack — acked[s] is what makes a late real
// ack from a half-dead link unable to double-decrement remaining).
type barrierWait struct {
	seq       uint64
	dump      bool
	heat      bool
	remaining int
	published bool
	sent      []bool
	acked     []bool
	err       error
	edges     [][]graph.Edge       // per shard, dump barriers only
	blocks    [][]fabric.BlockHeat // per shard, heat barriers only
	steps     []int64              // per shard, heat barriers only
	done      chan struct{}
}

func newCoordinator(port fabric.CoordPort, plan ShardPlan, cfg ShardedLiveConfig) *coordinator {
	c := &coordinator{
		port:     port,
		plan:     plan,
		cfg:      cfg,
		feed:     make(chan coordMsg, cfg.QueueDepth),
		master:   xrand.New(cfg.Seed),
		syncs:    map[uint64]*barrierWait{},
		migs:     map[uint64]chan *fabric.MigrateDone{},
		acks:     make([]fabric.Ack, plan.Shards),
		ledger:   make([]int64, plan.Shards),
		downs:    make([]bool, plan.Shards),
		rejoins:  map[int]*rejoinState{},
		window:   int64(cfg.CreditWindow),
		routed:   make([]int64, plan.Shards),
		credited: make([]int64, plan.Shards),
		credDown: make([]bool, plan.Shards),
		ctrl:     make(chan ctrlOp, 4*plan.Shards+16),
		priming:  make([]bool, plan.Shards),
		copySeq:  1 << 48,
	}
	c.credCond = sync.NewCond(&c.credMu)
	c.planv.Store(&plan)
	c.walkers.init(port.LaunchWalker, c.planNow, c.tally)
	c.routing.Add(1)
	go c.routerLoop()
	c.evloop.Add(1)
	go c.eventLoop()
	if cfg.Rebalance.On && plan.Shards > 1 {
		c.rebStop = make(chan struct{})
		c.rebWg.Add(1)
		go func() {
			defer c.rebWg.Done()
			rebalance.Run(c, cfg.Rebalance, c.rebStop, nil)
		}()
	}
	// Re-expose the newest ack-carried shard samples on this process's
	// /metrics, one shard label per node — the coordinator's scrape is
	// fleet-wide whether the shards are goroutines or remote daemons.
	c.obsKey = "coord-" + strconv.FormatUint(coordSeq.Add(1), 10)
	obs.RegisterExporter(c.obsKey, c.writeShardSamples)
	// Seed the broadcast stream so a reader attaching before the first
	// plan flip still finds the session's initial state cached.
	c.broadcastNow()
	return c
}

// writeShardSamples re-emits every shard's latest barrier-ack metrics
// sample with a shard label merged in — the aggregation path that makes
// the coordinator's /metrics cover the whole fleet.
func (c *coordinator) writeShardSamples(w io.Writer) {
	c.mu.Lock()
	samples := make([]obs.Sample, len(c.acks))
	for i := range c.acks {
		samples[i] = c.acks[i].Obs
	}
	c.mu.Unlock()
	for i := range samples {
		obs.WriteSample(w, samples[i], "shard", strconv.Itoa(i))
	}
}

// planNow returns the live ownership plan.
func (c *coordinator) planNow() ShardPlan { return *c.planv.Load() }

func (c *coordinator) setErr(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

// appliedStamp sums the shards' cumulative applied-update tallies from
// the latest barrier acks — the applied-update stamp the standing-walk
// corpus reads for its bounded-staleness check. Exact as of the last
// barrier (every ack carries cumulative Updates), so a caller that just
// returned from Sync holds proof that everything it fed before the Sync
// is covered by the stamp.
func (c *coordinator) appliedStamp() int64 {
	var n int64
	c.mu.Lock()
	for i := range c.acks {
		n += c.acks[i].Updates
	}
	c.mu.Unlock()
	return n
}

// Err returns the first error the coordinator observed through acks (nil
// if none). An in-process service prefers its nodes' own records; a port
// service has only this.
func (c *coordinator) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// routerLoop splits each feed batch by owner shard, preserving per-source
// order (single router, FIFO per-shard publish streams), and forwards
// barriers to every shard ordered after the batches before them. Every
// published element carries the routed-update ledger as of *after* the
// whole batch was accounted, so a shard learns about updates in flight
// to its peers no later than it learns about its own.
//
// Liveness transitions arrive on the ctrl channel and are drained with
// priority: a plan flip and its fabric announcements must interleave
// with update routing at exactly one point, and running them here — on
// the same goroutine that splits batches — is what makes "before the
// flip" and "after the flip" well-defined for every stream at once.
func (c *coordinator) routerLoop() {
	defer c.routing.Done()
	for {
		select {
		case op := <-c.ctrl:
			c.handleCtrl(op)
			continue
		default:
		}
		select {
		case op := <-c.ctrl:
			c.handleCtrl(op)
		case m, ok := <-c.feed:
			if !ok {
				return
			}
			switch {
			case m.bar != nil:
				c.publishBarrier(m.bar)
			case m.mig != nil:
				c.routeMigration(m.mig)
			default:
				c.routeBatch(m)
			}
		}
	}
}

// routeBatch fans one accepted batch out to its target shards. Without
// replication each update goes to its owner; with replication it goes to
// every live (or priming) member of its block's replica group, so every
// replica holds identical rows built from the identical routed stream —
// the invariant that makes promotion a mask flip. Each per-shard publish
// first passes the credit window.
func (c *coordinator) routeBatch(m coordMsg) {
	plan := c.planNow()
	replicated := plan.Replicas > 1
	if !m.boot {
		c.batches.Add(1)
		coordIngestBatches.Inc()
		coordIngestUpdates.Add(int64(len(m.ups)))
	}
	if replicated || m.boot {
		// Track the vertex-ID horizon for replica re-priming.
		hi := int64(-1)
		for _, up := range m.ups {
			if int64(up.Src) > hi {
				hi = int64(up.Src)
			}
			if int64(up.Dst) > hi {
				hi = int64(up.Dst)
			}
		}
		if hi >= 0 {
			c.noteVerts(hi + 1)
		}
	}
	parts := make([][]graph.Update, plan.Shards)
	if !replicated {
		for _, up := range m.ups {
			parts[plan.Owner(up.Src)] = append(parts[plan.Owner(up.Src)], up)
		}
	} else {
		for _, up := range m.ups {
			for _, h := range plan.GroupMembers(plan.BlockOf(up.Src)) {
				if plan.Alive(h) || c.priming[h] {
					parts[h] = append(parts[h], up)
				}
			}
		}
	}
	if !m.boot {
		c.ledMu.Lock()
		for i, p := range parts {
			c.ledger[i] += int64(len(p))
		}
		c.ledMu.Unlock()
	}
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		c.waitCredits(i, int64(len(p)))
		if err := c.port.PublishUpdates(i, fabric.Ingest{Ups: p, Boot: m.boot, Watermarks: c.ledgerCopy()}); err != nil {
			if replicated {
				// A dead link announces itself through EvShardDown; the
				// death path re-routes, so a failed publish is not fatal.
				continue
			}
			c.setErr(err)
		}
	}
}

// waitCredits blocks until shard s's outstanding credit window admits n
// more update events, then charges them. An oversized batch (n alone
// exceeding the window) is admitted whenever the window is empty —
// otherwise it could never be published at all. Gates lift for dead
// links (credDown — the death event owns them) and when the event
// stream ends (credClosed — nothing will ever credit again).
func (c *coordinator) waitCredits(s int, n int64) {
	if c.window <= 0 || n == 0 {
		return
	}
	c.credMu.Lock()
	for !c.credClosed && !c.credDown[s] {
		out := c.routed[s] - c.credited[s]
		if out <= 0 || out+n <= c.window {
			break
		}
		t0 := time.Now()
		c.credCond.Wait()
		d := time.Since(t0)
		c.stallNs += d.Nanoseconds()
		coordCreditStallNs.Observe(d)
		if d >= journalStallMin {
			obs.Log.Record(obs.EvCreditStall, s, d.String())
		}
	}
	c.routed[s] += n
	if out := c.routed[s] - c.credited[s]; out > c.maxOut {
		c.maxOut = out
	}
	c.credMu.Unlock()
}

// onCredit folds one shard's cumulative drain report into the window.
// Monotonic max: transports may reorder credits across link rebuilds,
// and a cumulative counter makes every credit self-repairing.
func (c *coordinator) onCredit(cr *fabric.Credit) {
	if cr == nil || cr.Shard < 0 || cr.Shard >= len(c.credited) {
		return
	}
	c.credMu.Lock()
	if cr.Credited > c.credited[cr.Shard] {
		c.credited[cr.Shard] = cr.Credited
		c.credCond.Broadcast()
	}
	c.credMu.Unlock()
}

// noteVerts raises the observed vertex-space bound (CAS max).
func (c *coordinator) noteVerts(n int64) {
	for {
		cur := c.maxVerts.Load()
		if n <= cur || c.maxVerts.CompareAndSwap(cur, n) {
			return
		}
	}
}

// publishBarrier sends one barrier to every shard live at this instant
// and arms its completion accounting. Dead shards are excluded — their
// replicas answer for their blocks (dump acks are ownership-filtered
// shard-side under replication, so the concatenation stays an exact
// partition). A barrier with no live shards completes immediately.
func (c *coordinator) publishBarrier(bw *barrierWait) {
	wms := c.ledgerCopy()
	c.mu.Lock()
	if _, still := c.syncs[bw.seq]; !still {
		// failPending already resolved it (event stream died first).
		c.mu.Unlock()
		return
	}
	bw.sent = make([]bool, c.plan.Shards)
	bw.acked = make([]bool, c.plan.Shards)
	n := 0
	for i := range bw.sent {
		if !c.downs[i] {
			bw.sent[i] = true
			n++
		}
	}
	bw.remaining = n
	bw.published = true
	if n == 0 {
		delete(c.syncs, bw.seq)
		close(bw.done)
		c.mu.Unlock()
		return
	}
	all := n == c.plan.Shards
	c.mu.Unlock()
	tok := fabric.Ingest{Barrier: bw.seq, Dump: bw.dump, Heat: bw.heat, Watermarks: wms}
	if all {
		if err := c.port.PublishBarrier(tok); err != nil {
			c.setErr(err)
		}
		return
	}
	for i := range bw.sent {
		if !bw.sent[i] {
			continue
		}
		if err := c.port.PublishUpdates(i, tok); err != nil && c.planNow().Replicas <= 1 {
			c.setErr(err)
		}
	}
}

// ledgerCopy snapshots the routed-update ledger for one wire message.
func (c *coordinator) ledgerCopy() []int64 {
	c.ledMu.Lock()
	defer c.ledMu.Unlock()
	return append([]int64(nil), c.ledger...)
}

// broadcastNow publishes the coordinator's current control state to
// every attached read-coordinator: live plan (epoch, overlay, dead-mask,
// geometry), routed-update watermarks, and the applied stamp. Broadcasts
// are full-state and idempotent, so any single one brings a reader
// current — the transports cache the newest for late attachers. Called
// after every plan flip (migration commit, death, failback), at session
// start, and at every barrier completion (the applied stamp moved).
func (c *coordinator) broadcastNow() {
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	c.bcastSeq++
	p := c.planNow()
	var ov map[uint64]int
	if len(p.Overlay) > 0 {
		ov = make(map[uint64]int, len(p.Overlay))
		for b, o := range p.Overlay {
			ov[b] = o
		}
	}
	b := fabric.Broadcast{
		Seq:        c.bcastSeq,
		Epoch:      p.Epoch,
		Overlay:    ov,
		DeadMask:   p.DeadMask,
		RangeSize:  p.RangeSize,
		Replicas:   p.Replicas,
		Vertices:   int(max(c.maxVerts.Load(), int64(p.RangeSize)*int64(p.Shards))),
		Watermarks: c.ledgerCopy(),
		Applied:    c.appliedStamp(),
	}
	coordBroadcasts.Inc()
	// Best effort: a broadcast that cannot be delivered (session tearing
	// down) only means readers are ending too.
	_ = c.port.PublishBroadcast(b)
}

// routeMigration publishes one migration's fabric messages from inside
// the router loop, which is what gives the protocol its ordering
// guarantees: the offer lands on the donor's FIFO stream *after* every
// batch routed to it so far (so the extracted rows contain them), the
// routing flip happens before any later batch is split (so updates for
// the moved block queue behind the recipient's commit), and the commit
// lands on every shard's stream after the flip (so the recipient
// installs the rows before applying those updates).
func (c *coordinator) routeMigration(mg *migOp) {
	// Validate the flip before anything is published: once the offer is
	// on the donor's stream the commit MUST follow (the recipient's
	// ingester will block on the shipped rows), so a plan the overlay
	// rejects has to fail the migration here, wedging nothing.
	cur := c.planNow()
	next, err := cur.WithOverlay(mg.block, mg.to, mg.epoch)
	if err != nil {
		c.setErr(err)
		c.onMigrated(&fabric.MigrateDone{Block: mg.block, Epoch: mg.epoch, Err: err.Error()})
		return
	}
	obs.Log.Record(obs.EvMigrationOffer, mg.from,
		fmt.Sprintf("block %d -> shard %d (epoch %d)", mg.block, mg.to, mg.epoch))
	if err := c.port.PublishUpdates(mg.from, fabric.Ingest{
		Offer:      fabric.MigrateOffer{Block: mg.block, To: mg.to, Epoch: mg.epoch},
		Watermarks: c.ledgerCopy(),
	}); err != nil {
		c.setErr(err)
	}
	c.planv.Store(&next)
	obs.Log.Record(obs.EvPlanFlip, -1, fmt.Sprintf("epoch %d: block %d overlay -> shard %d", next.Epoch, mg.block, mg.to))
	cm := fabric.MigrateCommit{Block: mg.block, From: mg.from, To: mg.to, Epoch: mg.epoch, MinWatermark: c.ledger[mg.from]}
	for i := 0; i < c.plan.Shards; i++ {
		if err := c.port.PublishUpdates(i, fabric.Ingest{Commit: cm, Watermarks: c.ledgerCopy()}); err != nil {
			c.setErr(err)
		}
	}
	obs.Log.Record(obs.EvMigrationCommit, mg.to,
		fmt.Sprintf("block %d from shard %d (epoch %d)", mg.block, mg.from, mg.epoch))
	// Readers learn the flipped plan (and drop cached views of the moved
	// block) through the broadcast stream.
	c.broadcastNow()
}

// handleCtrl runs one liveness transition on the router thread.
func (c *coordinator) handleCtrl(op ctrlOp) {
	switch op.kind {
	case ctrlDown:
		c.ctrlDownOp(op.shard)
	case ctrlUp:
		c.ctrlUpOp(op.shard)
	case ctrlClear:
		c.ctrlClearOp(op.shard)
	}
}

// pushCtrl hands a liveness transition to the router. The buffer is
// sized beyond any realistic burst (a few transitions per link per
// session), and the router cannot be wedged while one is pending: the
// event loop lifts the relevant credit gate before pushing, so a router
// blocked in waitCredits always wakes.
func (c *coordinator) pushCtrl(op ctrlOp) {
	c.ctrl <- op
}

// ctrlDownOp handles one shard's link death: abort any priming the dead
// shard was part of (as rejoiner or as copy donor — a donor death
// strands its copies, and the wedged rejoiner stays conservatively
// masked dead), flip the plan, announce the flip on every live shard's
// FIFO stream (the ordering that makes the dead-mask consistent at
// barrier points), and relaunch every in-flight walker from its stored
// launch spec — anything queued inside the dead daemon is gone.
func (c *coordinator) ctrlDownOp(s int) {
	c.priming[s] = false
	c.mu.Lock()
	delete(c.rejoins, s)
	var abandoned []int
	for rsh, rs := range c.rejoins {
		if rs.donors[s] {
			delete(c.rejoins, rsh)
			abandoned = append(abandoned, rsh)
		}
	}
	c.mu.Unlock()
	for _, a := range abandoned {
		c.priming[a] = false
		c.credMu.Lock()
		c.credDown[a] = true
		c.credCond.Broadcast()
		c.credMu.Unlock()
	}
	plan := c.planNow()
	if !plan.Alive(s) {
		return // rejoin churn: the shard died again while already masked
	}
	next, err := plan.WithDown(s, plan.Epoch+1)
	if err != nil {
		c.setErr(err)
		return
	}
	c.planv.Store(&next)
	obs.Log.Record(obs.EvShardDeath, s, fmt.Sprintf("masked dead (epoch %d)", next.Epoch))
	if next.Replicas > 1 {
		// Each block the dead shard owned now answers from its group's
		// surviving owner — the promotion the mask flip implies.
		obs.Log.Record(obs.EvShardPromote, s, "replica group serving the dead shard's blocks")
	}
	sd := fabric.ShardDown{Shard: s, Epoch: next.Epoch}
	for i := 0; i < c.plan.Shards; i++ {
		if !next.Alive(i) {
			continue
		}
		// Publish errors here are the target's own death in progress;
		// its event fixes the plan again.
		_ = c.port.PublishUpdates(i, fabric.Ingest{Down: sd, Watermarks: c.ledgerCopy()})
	}
	c.broadcastNow() // readers re-route around the new dead-mask
	c.walkers.relaunchPending()
}

// ctrlUpOp handles a rejoined shard: reset its credit accounting (a
// restarted daemon's counter begins at 0), start fanning the routed
// stream out to it (priming), send it a plan snapshot — the first
// element on its fresh FIFO stream, catching it up on every flip it
// missed — and snapshot-copy every replica block it should hold from
// that block's live owner. The whole op runs without yielding to the
// feed queue, which is the no-loss/no-duplication cut: updates routed
// before it are in the donors' snapshots (FIFO puts them before the
// offers), updates routed after it reach the rejoiner directly.
func (c *coordinator) ctrlUpOp(s int) {
	plan := c.planNow()
	if plan.Replicas <= 1 || plan.Alive(s) || c.priming[s] {
		return
	}
	c.credMu.Lock()
	c.routed[s], c.credited[s] = 0, 0
	c.credDown[s] = false
	c.credMu.Unlock()
	c.priming[s] = true
	ps := &fabric.PlanState{Epoch: plan.Epoch, Overlay: plan.Overlay, DeadMask: plan.DeadMask}
	if err := c.port.PublishUpdates(s, fabric.Ingest{Plan: ps, Watermarks: c.ledgerCopy()}); err != nil {
		c.abortRejoin(s)
		return
	}
	rsize := int64(plan.RangeSize)
	nblocks := (c.maxVerts.Load() + rsize - 1) / rsize
	type copyJob struct {
		block uint64
		donor int
	}
	var jobs []copyJob
	rs := &rejoinState{shard: s, donors: map[int]bool{}}
	for b := int64(0); b < nblocks; b++ {
		bb := uint64(b)
		if !plan.InGroup(bb, s) {
			continue
		}
		donor := plan.BlockOwner(bb)
		if donor == s || !plan.Alive(donor) {
			continue // whole group dead: nothing live to copy from
		}
		jobs = append(jobs, copyJob{bb, donor})
		rs.donors[donor] = true
	}
	if len(jobs) == 0 {
		// Nothing to prime (empty graph, or no live donors): fail back
		// immediately — an empty shard is exactly what its replicas hold
		// for it in that case.
		c.ctrlClearOp(s)
		return
	}
	rs.remaining = len(jobs)
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.rejoins[s] = rs
	c.mu.Unlock()
	for _, j := range jobs {
		epoch := c.copySeq
		c.copySeq++
		off := fabric.MigrateOffer{Block: j.block, To: s, Epoch: epoch, Copy: true}
		if err := c.port.PublishUpdates(j.donor, fabric.Ingest{Offer: off, Watermarks: c.ledgerCopy()}); err != nil {
			c.abortRejoin(s)
			return
		}
		cm := fabric.MigrateCommit{Block: j.block, From: j.donor, To: s, Epoch: epoch, MinWatermark: c.ledger[j.donor], Copy: true}
		if err := c.port.PublishUpdates(s, fabric.Ingest{Commit: cm, Watermarks: c.ledgerCopy()}); err != nil {
			c.abortRejoin(s)
			return
		}
	}
}

// abortRejoin abandons an in-flight rejoin (router thread): the shard
// stays masked dead, its credit gate lifts again, and the session keeps
// running on the survivors. A later EvShardUp retries from scratch —
// copy installs wipe the block range first, so re-priming is idempotent.
func (c *coordinator) abortRejoin(s int) {
	c.priming[s] = false
	c.mu.Lock()
	delete(c.rejoins, s)
	c.mu.Unlock()
	c.credMu.Lock()
	c.credDown[s] = true
	c.credCond.Broadcast()
	c.credMu.Unlock()
}

// ctrlClearOp fails a fully-primed shard back in: flip it live, then
// announce the flip on every live shard's FIFO — including the
// rejoiner's, whose own plan learns the flip in the same ordered stream
// that already carried its snapshot and primed rows. Barriers include
// the shard again from here on.
func (c *coordinator) ctrlClearOp(s int) {
	plan := c.planNow()
	if plan.Alive(s) {
		return
	}
	next, err := plan.WithUp(s, plan.Epoch+1)
	if err != nil {
		c.setErr(err)
		return
	}
	c.planv.Store(&next)
	c.priming[s] = false
	sd := fabric.ShardDown{Shard: s, Epoch: next.Epoch, Up: true}
	for i := 0; i < c.plan.Shards; i++ {
		if !next.Alive(i) {
			continue
		}
		_ = c.port.PublishUpdates(i, fabric.Ingest{Down: sd, Watermarks: c.ledgerCopy()})
	}
	c.mu.Lock()
	c.downs[s] = false
	c.mu.Unlock()
	c.rejoinsDone.Add(1)
	obs.Log.Record(obs.EvShardRejoin, s, fmt.Sprintf("primed and live again (epoch %d)", next.Epoch))
	c.broadcastNow() // readers see the shard live again
	// A survivor that had not yet applied the death flip may have handed
	// a walker to the dead daemon after the death-time relaunch: a TCP
	// write into a just-killed peer can succeed locally and vanish. The
	// donors applied the flip before shipping the rejoiner its blocks, so
	// a second sweep here catches walkers lost in that window; a
	// duplicate retire resolves first-wins.
	c.walkers.relaunchPending()
}

// eventLoop consumes retires and acks until the fabric's event stream
// ends, then fails whatever is still pending (a clean Close leaves
// nothing pending; a dead session must not leave callers blocked).
func (c *coordinator) eventLoop() {
	defer c.evloop.Done()
	for {
		ev, ok := c.port.NextEvent()
		if !ok {
			break
		}
		switch ev.Kind {
		case fabric.EvRetire:
			c.walkers.onRetire(ev.Walker)
		case fabric.EvAck:
			c.onAck(ev.Ack)
		case fabric.EvMigrated:
			if ev.Done != nil && ev.Done.Copy {
				c.onCopyDone(ev.Done)
			} else {
				c.onMigrated(ev.Done)
			}
		case fabric.EvCredit:
			c.onCredit(ev.Credit)
		case fabric.EvShardDown:
			c.onShardDown(ev.Shard)
		case fabric.EvShardUp:
			c.onShardUp(ev.Shard)
		}
	}
	c.failPending()
}

// onShardDown reacts to one link's death on the event thread: lift the
// shard's credit gate (its drain signal is gone — a router stalled on
// it must wake *before* the ctrl op can be processed), mark it down for
// barrier publishing, force-ack its outstanding barriers (synthetic
// acks; a late real ack can no longer double-decrement), then hand the
// plan flip to the router. Without replication a shard loss is the end
// of the session, exactly as before.
func (c *coordinator) onShardDown(s int) {
	if s < 0 || s >= c.plan.Shards {
		return
	}
	if c.planNow().Replicas <= 1 {
		c.setErr(ErrFabricDown)
		return
	}
	c.deaths.Add(1)
	c.credMu.Lock()
	c.credDown[s] = true
	c.credCond.Broadcast()
	c.credMu.Unlock()
	c.mu.Lock()
	if !c.downs[s] {
		c.downs[s] = true
		for seq, bw := range c.syncs {
			if bw.published && bw.sent[s] && !bw.acked[s] {
				bw.acked[s] = true
				bw.remaining--
				if bw.remaining <= 0 {
					delete(c.syncs, seq)
					close(bw.done)
				}
			}
		}
	}
	c.mu.Unlock()
	c.pushCtrl(ctrlOp{kind: ctrlDown, shard: s})
}

// onShardUp hands a rejoined link to the router for snapshot priming.
func (c *coordinator) onShardUp(s int) {
	if s < 0 || s >= c.plan.Shards || c.planNow().Replicas <= 1 {
		return
	}
	c.pushCtrl(ctrlOp{kind: ctrlUp, shard: s})
}

// onCopyDone resolves one replica-priming block copy. When a rejoin's
// last copy lands cleanly the router fails the shard back in; any
// failed copy abandons the rejoin (the shard stays masked dead — a
// later reconnect retries from scratch, idempotently).
func (c *coordinator) onCopyDone(d *fabric.MigrateDone) {
	if d.Err == "" {
		c.copiedBlocks.Add(1)
	}
	c.mu.Lock()
	rs := c.rejoins[d.Shard]
	if rs == nil {
		c.mu.Unlock()
		return // abandoned rejoin; straggler report
	}
	if d.Err != "" {
		rs.failed = true
	}
	rs.remaining--
	done := rs.remaining <= 0
	failed := rs.failed
	if done {
		delete(c.rejoins, d.Shard)
	}
	c.mu.Unlock()
	if !done {
		return
	}
	if failed {
		c.pushCtrl(ctrlOp{kind: ctrlDown, shard: d.Shard})
		return
	}
	c.pushCtrl(ctrlOp{kind: ctrlClear, shard: d.Shard})
}

// tally folds a resolved walker's telemetry into the session counters.
// Tallies fold in only at resolution, so a duplicate or rerouted retire
// never double-counts.
func (c *coordinator) tally(w *fabric.Walker) {
	c.steps.Add(w.Steps)
	c.transfers.Add(w.Transfers)
	c.local.Add(w.Local)
	c.remote.Add(w.Remote)
	if w.Failed {
		c.setErr(ErrFabricDown)
	}
}

func (c *coordinator) onAck(a *fabric.Ack) {
	if a.Err != "" {
		c.setErr(errors.New(a.Err))
	}
	completed := false
	c.mu.Lock()
	if a.Shard >= 0 && a.Shard < len(c.acks) {
		// Cache the scalar tallies only: a dump barrier's edge snapshot
		// and a heat barrier's block report (already handed to their
		// barrierWait below) must not stay live in the session-long
		// table.
		cached := *a
		cached.Edges = nil
		cached.Heat = nil
		c.acks[a.Shard] = cached
	}
	bw := c.syncs[a.Seq]
	if bw != nil {
		if a.Err != "" && bw.err == nil {
			bw.err = errors.New(a.Err)
		}
		if bw.edges != nil && a.Shard >= 0 && a.Shard < len(bw.edges) {
			bw.edges[a.Shard] = a.Edges
		}
		if bw.blocks != nil && a.Shard >= 0 && a.Shard < len(bw.blocks) {
			bw.blocks[a.Shard] = a.Heat
			bw.steps[a.Shard] = a.Steps
		}
		counted := false
		if bw.acked != nil && a.Shard >= 0 && a.Shard < len(bw.acked) {
			// acked-once: a shard force-acked at its death (synthetic ack)
			// must not decrement again if the real ack straggles in.
			if !bw.acked[a.Shard] {
				bw.acked[a.Shard] = true
				counted = true
			}
		} else {
			counted = true
		}
		if counted {
			bw.remaining--
			if bw.remaining <= 0 {
				delete(c.syncs, a.Seq)
				close(bw.done)
				completed = true
			}
		}
	}
	c.mu.Unlock()
	if completed {
		// The applied stamp just advanced past everything fed before the
		// barrier; push it to readers so their WaitApplied unblocks.
		c.broadcastNow()
	}
}

// onMigrated resolves the in-flight migration the report names.
func (c *coordinator) onMigrated(d *fabric.MigrateDone) {
	c.mu.Lock()
	ch := c.migs[d.Epoch]
	delete(c.migs, d.Epoch)
	c.mu.Unlock()
	if ch != nil {
		ch <- d
	}
}

// failPending unblocks every caller still waiting when the event stream
// dies: walkers resolve as lost (their Query or DeepWalk call fails with
// ErrFabricDown), barriers and migrations complete with the error. It
// also marks the coordinator dead under the same lock registrations take,
// so no later caller can register into a table nothing will ever resolve.
func (c *coordinator) failPending() {
	// Lift every credit gate first: a router blocked in waitCredits must
	// wake (nothing will ever credit again) or Close would deadlock.
	c.credMu.Lock()
	c.credClosed = true
	c.credCond.Broadcast()
	c.credMu.Unlock()
	lost := c.walkers.failPending()
	c.mu.Lock()
	c.dead = true
	syncs := c.syncs
	migs := c.migs
	c.syncs = map[uint64]*barrierWait{}
	c.migs = map[uint64]chan *fabric.MigrateDone{}
	c.rejoins = map[int]*rejoinState{}
	c.mu.Unlock()
	for _, ch := range migs {
		ch <- nil // Migrate maps nil to ErrFabricDown
	}
	for _, bw := range syncs {
		if bw.err == nil {
			bw.err = ErrFabricDown
		}
		close(bw.done)
	}
	if lost+len(syncs)+len(migs) > 0 {
		c.setErr(ErrFabricDown)
	}
}

// Query walks from start for up to length steps (<= 0 selects the
// configured default) and returns the visited path, start included. The
// walk begins on the shard owning start and follows the walker-transfer
// topology; the call blocks until the walker retires.
func (c *coordinator) Query(start graph.VertexID, length int) ([]graph.VertexID, error) {
	if length <= 0 {
		length = c.cfg.WalkLength
	}
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	c.sendMu.RLock()
	if c.closed {
		c.sendMu.RUnlock()
		return nil, ErrLiveClosed
	}
	id := c.walkers.nextID()
	path := make([]graph.VertexID, 1, length+1)
	path[0] = start
	reply, err := c.walkers.start(&fabric.Walker{
		ID:     id,
		Cur:    start,
		Left:   length,
		Rng:    c.master.Split(id).State(),
		Record: true,
		Path:   path,
	})
	c.sendMu.RUnlock()
	if err != nil {
		return nil, err
	}
	w, err := awaitWalker(reply)
	if err != nil {
		return nil, err
	}
	c.queries.Add(1)
	if !t0.IsZero() {
		coordQueryNs.ObserveSince(t0)
	}
	return w.Path, nil
}

// Feed enqueues a batch for routed ingestion. It blocks when the feed
// queue is full (backpressure) and returns ErrLiveClosed after Close. The
// batch slice is owned by the coordinator once accepted; per-source order
// across Feed calls is preserved shard-side (the LiveService contract).
func (c *coordinator) Feed(ups []graph.Update) error {
	c.sendMu.RLock()
	defer c.sendMu.RUnlock()
	if c.closed {
		return ErrLiveClosed
	}
	c.feed <- coordMsg{ups: ups}
	return nil
}

// feedBoot enqueues a snapshot-bootstrap batch: routed to every holder
// replica, credit-gated like any batch (it occupies daemon queue space),
// but excluded from the routed ledger and the shards' update tallies —
// bootstrap rows are initial state, not feed events.
func (c *coordinator) feedBoot(ups []graph.Update) error {
	c.sendMu.RLock()
	defer c.sendMu.RUnlock()
	if c.closed {
		return ErrLiveClosed
	}
	c.feed <- coordMsg{ups: ups, boot: true}
	return nil
}

// barrier pushes a sync (optionally dump or heat) barrier through the
// feed queue and blocks until every shard acknowledged it.
func (c *coordinator) barrier(dump, heat bool) (*barrierWait, error) {
	c.sendMu.RLock()
	if c.closed {
		c.sendMu.RUnlock()
		return nil, ErrLiveClosed
	}
	bw := &barrierWait{
		seq:       c.barSeq.Add(1),
		dump:      dump,
		heat:      heat,
		remaining: c.plan.Shards,
		done:      make(chan struct{}),
	}
	if dump {
		bw.edges = make([][]graph.Edge, c.plan.Shards)
	}
	if heat {
		bw.blocks = make([][]fabric.BlockHeat, c.plan.Shards)
		bw.steps = make([]int64, c.plan.Shards)
	}
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		c.sendMu.RUnlock()
		return nil, ErrFabricDown
	}
	c.syncs[bw.seq] = bw
	c.mu.Unlock()
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	c.feed <- coordMsg{bar: bw}
	c.sendMu.RUnlock()
	<-bw.done
	if !t0.IsZero() {
		coordBarrierNs.ObserveSince(t0)
	}
	return bw, nil
}

// DumpEdges drives a dump barrier: it returns every shard's live edge
// multiset as of a point after all previously accepted feed batches
// (the read-back path distributed verification is built on).
func (c *coordinator) DumpEdges() ([][]graph.Edge, error) {
	bw, err := c.barrier(true, false)
	if err != nil {
		return nil, err
	}
	return bw.edges, bw.err
}

// DeepWalk runs a bulk first-order walk through the sharded runtime while
// the feed keeps ingesting (see walkerTable.startBulk). numVertices is
// the caller's view of the current vertex space. It fails with
// ErrFabricDown if any walker is lost.
func (c *coordinator) DeepWalk(cfg Config, numVertices int) (Result, TransferStats, error) {
	c.sendMu.RLock()
	if c.closed {
		c.sendMu.RUnlock()
		return Result{}, TransferStats{}, ErrLiveClosed
	}
	run := c.walkers.startBulk(cfg, numVertices)
	c.sendMu.RUnlock()
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	res, ts, err := run.wait()
	if !t0.IsZero() {
		coordDeepwalkNs.ObserveSince(t0)
	}
	return res, ts, err
}

// Close drains the feed (queued batches are routed and applied), stops
// the rebalancer (waiting out its in-flight migration, so no extracted
// block is ever stranded by the teardown), waits for every in-flight
// walker to retire, ends the fabric session, and waits for the event
// stream to wind down. Idempotent.
func (c *coordinator) Close() error {
	c.sendMu.Lock()
	first := !c.closed
	if first {
		c.closed = true
		close(c.feed)
	}
	c.sendMu.Unlock()
	if first {
		if c.rebStop != nil {
			close(c.rebStop)
			c.rebWg.Wait() // in-flight migration completes via the event loop
		}
		c.routing.Wait()          // every accepted batch published
		c.walkers.inflight.Wait() // every accepted walker retired
		c.port.Close()
		obs.UnregisterExporter(c.obsKey)
	}
	c.evloop.Wait()
	return c.Err()
}

// backpressureTallies snapshots the credit window's activity.
func (c *coordinator) backpressureTallies() (maxOutstanding int64, stall time.Duration) {
	c.credMu.Lock()
	defer c.credMu.Unlock()
	return c.maxOut, time.Duration(c.stallNs)
}

// failoverTallies snapshots the replica-failover activity counters.
func (c *coordinator) failoverTallies() FailoverTallies {
	return FailoverTallies{
		Deaths:       c.deaths.Load(),
		Reroutes:     c.walkers.reroutes.Load(),
		Relaunches:   c.walkers.relaunches.Load(),
		Rejoins:      c.rejoinsDone.Load(),
		CopiedBlocks: c.copiedBlocks.Load(),
	}
}

// rebalanceTallies snapshots the rebalancer's activity counters.
func (c *coordinator) rebalanceTallies() RebalanceTallies {
	return RebalanceTallies{
		Migrations: c.migrations.Load(),
		MovedEdges: c.movedEdges.Load(),
		PlanEpoch:  c.planNow().Epoch,
	}
}

// ---------------------------------------------------------------------------
// rebalance.Controller — the mechanism half of the heat-aware rebalancer.

// Shards returns the partition count.
func (c *coordinator) Shards() int { return c.plan.Shards }

// BlockOwner resolves a block's owner under the live plan.
func (c *coordinator) BlockOwner(b uint64) int { return c.planNow().BlockOwner(b) }

// Heat drives a heat barrier and returns every shard's report: the
// node's cumulative step count plus its per-block step/degree samples,
// consistent with all feed batches accepted before the call.
func (c *coordinator) Heat() ([]rebalance.ShardHeat, error) {
	bw, err := c.barrier(false, true)
	if err != nil {
		return nil, err
	}
	if bw.err != nil {
		return nil, bw.err
	}
	out := make([]rebalance.ShardHeat, c.plan.Shards)
	for i := range out {
		out[i] = rebalance.ShardHeat{Shard: i, Steps: bw.steps[i]}
		blocks := make([]rebalance.BlockSample, 0, len(bw.blocks[i]))
		for _, b := range bw.blocks[i] {
			blocks = append(blocks, rebalance.BlockSample{Block: b.Block, Steps: b.Steps, Edges: b.Edges})
		}
		out[i].Blocks = blocks
	}
	return out, nil
}

// Migrate executes one live block migration end to end: it routes the
// offer/commit pair through the feed queue (ordering against accepted
// batches) and blocks until the recipient reports the block installed.
// Serialized by construction — the rebalancer watch loop is the only
// caller, and it migrates one block at a time, which is what keeps the
// donor-waits-for-nobody / recipient-waits-for-one-donor protocol
// trivially deadlock-free.
func (c *coordinator) Migrate(m rebalance.Move) error {
	c.sendMu.RLock()
	if c.closed {
		c.sendMu.RUnlock()
		return ErrLiveClosed
	}
	cur := c.planNow()
	from := cur.BlockOwner(m.Block)
	if from == m.To || m.To < 0 || m.To >= c.plan.Shards {
		c.sendMu.RUnlock()
		return nil
	}
	epoch := cur.Epoch + 1
	ch := make(chan *fabric.MigrateDone, 1)
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		c.sendMu.RUnlock()
		return ErrFabricDown
	}
	c.migs[epoch] = ch
	c.mu.Unlock()
	c.feed <- coordMsg{mig: &migOp{block: m.Block, from: from, to: m.To, epoch: epoch}}
	c.sendMu.RUnlock()
	d := <-ch
	if d == nil {
		return ErrFabricDown
	}
	if d.Err != "" {
		err := errors.New(d.Err)
		c.setErr(err)
		return err
	}
	c.migrations.Add(1)
	coordMigrations.Inc()
	c.movedEdges.Add(d.Edges)
	return nil
}
