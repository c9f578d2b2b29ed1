package walk

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
)

// shardNode hosts one shard's engine behind a fabric port: a crew of
// walker goroutines drains the walker stream (advance while on owned
// vertices, forward on boundary crossings, retire to the coordinator), a
// single ingester drains the ordered ingest stream (apply batches,
// acknowledge barriers), and a view loop serves the fabric-side hub
// cache (answer peers' view requests, install their replies). The same
// node logic runs inside the in-process ShardedLiveService and inside a
// `bingowalk -shard-serve` daemon — the fabric is the only thing that
// changes.
//
// Hub caches. When the engine supports versioned views (ViewSampler —
// concurrent.Engine does) and the cache is not switched off, hops are
// served through two layers:
//
//   - each crew walker keeps a private LRU of owned hub vertices' views
//     and samples lock-free, revalidating by stripe epoch on every hop
//     and falling back to the locked path on mismatch;
//   - the node keeps a shared cache of *peer-owned* hub views, filled by
//     asynchronous ViewRequest/ViewReply traffic after repeated
//     hand-offs toward the same vertex, and invalidated by the
//     coordinator's routed-update watermarks piggybacked on the ingest
//     stream. A hop at a cached non-owned hub is served locally instead
//     of costing a walker hand-off.
//
// Ownership migration. The node is also one endpoint of the rebalancer's
// migration protocol (see DESIGN.md, "Heat-aware rebalancing"): its
// ownership plan is an atomic pointer the ingester swaps on MigrateOffer
// (donor: flip, then extract and ship the block) and MigrateCommit
// (recipient: wait for the block, install, then flip; bystander: just
// flip), while crews reload it every hop — a walker that lands on a moved
// vertex is re-routed to whatever owner the node's current plan names,
// never lost. Crews additionally tally sampled hops per ownership block,
// and heat barriers read the tally back to the coordinator.
type shardNode struct {
	e     LiveEngine
	planv atomic.Pointer[ShardPlan]
	shard int
	port  fabric.ShardPort

	// ve is the engine's view capability; nil disables both cache
	// layers (plain locked sampling, the pre-cache behavior).
	ve     ViewSampler
	cache  fabric.CacheSpec
	kernel KernelMode
	rv     *remoteViews // nil when caching is off

	loops sync.WaitGroup // crews + ingester + view loop
	done  sync.WaitGroup // loops + the port-close watcher

	steps, transfers, local, remote atomic.Int64
	updates, dropped                atomic.Int64
	// consumed counts update events consumed from the ingest stream —
	// applied *or* dropped — i.e. this node's position in the stream the
	// coordinator's routed ledger counts. View Applied stamps use it
	// rather than `updates`: a dropped sub-batch advances the stream
	// without applying, and stamping applied-only would leave the node
	// forever short of the ledger, permanently failing every peer's
	// install check and silently disabling this shard's hub views.
	consumed atomic.Int64

	localHits, localStale  atomic.Int64
	remoteStaleN, viewReqs atomic.Int64
	viewsServed            atomic.Int64

	// credited counts ingest-stream elements' update events toward the
	// coordinator's credit window: routed update events (applied or
	// dropped) plus bootstrap rows. Distinct from `consumed` (stream
	// position for view stamps — excludes boot rows) and from `updates`
	// (applied only): credits measure *queue drain*, which is exactly
	// what flow control needs, nothing else.
	credited atomic.Int64

	// migratedIn counts edges installed from migration blocks (kept out
	// of `updates`/`consumed`: installs are not routed-update events, and
	// inflating `consumed` would let hub views stamped after an install
	// survive watermarks covering routed updates they do not contain).
	migratedIn atomic.Int64

	// procWide marks a node that owns its whole process (a
	// `bingowalk -shard-serve` daemon): its barrier-ack metrics sample
	// then includes the process registry (fabric frame counters, kernel
	// histograms) on top of the node tallies. In-process nodes share one
	// registry with the coordinator and every sibling shard, so they ship
	// only their own tallies — per-shard labels stay meaningful.
	procWide bool

	// stash holds migration blocks that arrived ahead of the commit the
	// ingester is currently blocked on, keyed by (block, epoch). Replica
	// priming copies blocks from *several* donors concurrently, and their
	// peer streams interleave arbitrarily on the single block mailbox —
	// the ingester processes commits in its own FIFO order and parks
	// early arrivals here. Ingester-only; no lock.
	stash map[blockKey]*fabric.MigrateBlock

	// heatMu guards blockSteps, the node's cumulative sampled-hop tally
	// per ownership block (crews flush per-segment run counts into it;
	// heat barriers read it back to the coordinator).
	heatMu     sync.Mutex
	blockSteps map[uint64]int64

	errMu sync.Mutex
	err   error
}

// planNow returns the node's current ownership plan.
func (n *shardNode) planNow() ShardPlan { return *n.planv.Load() }

// setPlan installs a new ownership plan.
func (n *shardNode) setPlan(p ShardPlan) { n.planv.Store(&p) }

// bumpBlockSteps folds a crew's per-block hop run into the heat tally.
func (n *shardNode) bumpBlockSteps(block uint64, steps int64) {
	if steps == 0 {
		return
	}
	n.heatMu.Lock()
	n.blockSteps[block] += steps
	n.heatMu.Unlock()
}

// RangeExtractor is the optional LiveEngine capability live rebalancing
// requires on donors: atomically remove a vertex range's rows and return
// updates that reconstruct them (concurrent.Engine implements it). The
// serving runtimes refuse to enable rebalancing over engines without it.
type RangeExtractor interface {
	// ExtractRange takes uint64 bounds: the top ownership block of the
	// uint32 ID space ends at 2^32, which a graph.VertexID cannot hold.
	ExtractRange(lo, hi uint64) ([]graph.Update, error)
}

// RangeSnapshotter is the optional LiveEngine capability replica priming
// requires on copy donors: a consistent read of a vertex range's rows
// that leaves the donor serving them (concurrent.Engine implements it).
type RangeSnapshotter interface {
	SnapshotRange(lo, hi uint64) ([]graph.Update, error)
}

// blockKey identifies one in-flight migration or copy block.
type blockKey struct {
	block uint64
	epoch uint64
}

// EdgeDumper is the optional LiveEngine capability behind the fabric's
// dump barrier: a consistent flattening of the engine's live edge
// multiset. concurrent.Engine implements it; engines that don't simply
// answer dump barriers without edges.
type EdgeDumper interface {
	DumpEdges() []graph.Edge
}

// startShardNode spawns the node's crew, ingester, and view loop. When
// all have exited (the coordinator closed the session and the queues
// drained), the node closes its port — the shard-done signal the
// coordinator's event stream waits for.
func startShardNode(e LiveEngine, plan ShardPlan, shard int, port fabric.ShardPort, crew int, cache fabric.CacheSpec, kernel KernelMode, procWide bool) *shardNode {
	if crew < 1 {
		crew = 1
	}
	n := &shardNode{e: e, shard: shard, port: port, cache: cache, kernel: kernel, procWide: procWide, blockSteps: map[uint64]int64{}, stash: map[blockKey]*fabric.MigrateBlock{}}
	n.setPlan(plan)
	if !cache.Off {
		if ve, ok := e.(ViewSampler); ok {
			n.ve = ve
			n.rv = newRemoteViews(plan.Shards, cache.RemoteSize, cache.RequestAfter)
			// Replies are validated against the *current* owner: after a
			// migration, a straggler reply from the old owner must not
			// install a view the new owner's updates would never
			// invalidate.
			n.rv.ownerOf = func(v graph.VertexID) int { return n.planNow().Owner(v) }
		}
	}
	n.loops.Add(crew + 2)
	for i := 0; i < crew; i++ {
		go n.crewLoop()
	}
	go n.ingestLoop()
	go n.viewLoop()
	n.done.Add(1)
	go func() {
		defer n.done.Done()
		n.loops.Wait()
		n.port.Close()
	}()
	return n
}

// wait blocks until the node has fully wound down (port closed).
func (n *shardNode) wait() { n.done.Wait() }

func (n *shardNode) setErr(err error) {
	n.errMu.Lock()
	if n.err == nil {
		n.err = err
	}
	n.errMu.Unlock()
}

func (n *shardNode) firstErr() error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return n.err
}

// cacheTallies snapshots the node's hub-cache counters.
func (n *shardNode) cacheTallies() fabric.CacheTallies {
	return fabric.CacheTallies{
		LocalHits:    n.localHits.Load(),
		LocalStale:   n.localStale.Load(),
		RemoteHits:   n.remote.Load(),
		RemoteStale:  n.remoteStaleN.Load(),
		ViewRequests: n.viewReqs.Load(),
		ViewsServed:  n.viewsServed.Load(),
	}
}

// crewLoop is one walker crew of the shard, stepping a frontier batch of
// in-flight walkers through the shared kernel. Each round advances every
// live walker at most one hop: walkers on owned vertices step through the
// kernel (co-located walkers share one lock/epoch round, the crew's
// private hub-view LRU serves hot vertices lock-free), walkers on
// non-owned vertices sample from the node's remote-view cache when a
// valid view is held, and walkers on non-owned vertices without a view
// are handed to their owner. A walker's RNG stream is re-seated from the
// carried state into a pooled generator slot on arrival and re-serialized
// before the walker leaves this address space (forward or retire), so the
// stream continues draw-for-draw wherever the walker lands next.
func (n *shardNode) crewLoop() {
	defer n.loops.Done()
	k := newStepKernel(n.e, n.kernel, n.cache)
	f := getFrontier(kernelBatch)
	defer putFrontier(f)
	wks := make([]*fabric.Walker, kernelBatch)
	drop := make([]bool, kernelBatch)
	in := make([]*fabric.Walker, 0, kernelBatch)
	retire := make([]*fabric.Walker, 0, kernelBatch)
	heat := map[uint64]int64{}
	for {
		batch, ok := n.port.NextWalkers(in[:0], kernelBatch)
		if !ok {
			return
		}
		in = batch[:0]
		live := 0
		for _, wk := range batch {
			if wk.Left <= 0 {
				if err := n.port.Retire(wk); err != nil {
					n.setErr(err)
				}
				continue
			}
			wks[live] = wk
			f.cur[live] = wk.Cur
			f.seatRNG(live, wk.Rng)
			live++
		}
		// Step the batch to completion before popping more walkers; each
		// round advances every live walker at most one hop.
		for live > 0 {
			var seg struct{ steps, transfers, local, remote int64 }
			retire = retire[:0]
			// Reload the plan every round (= every hop): the ingester
			// swaps it when a block migrates, and the stale-window cost is
			// only an extra hand-off (the receiving owner re-routes).
			plan := n.planNow()
			// Partition walkers on owned vertices to the front — the
			// kernel's slice of the frontier.
			m := 0
			for i := 0; i < live; i++ {
				if plan.Owner(wks[i].Cur) == n.shard {
					if i != m {
						f.swap(i, m)
						wks[i], wks[m] = wks[m], wks[i]
					}
					m++
				}
			}
			f.n = m
			k.stepBatch(f)
			for i := 0; i < m; i++ {
				wk := wks[i]
				drop[i] = false
				if !f.ok[i] {
					if n.planNow().Owner(wk.Cur) != n.shard {
						// Not a dead end — the block migrated out between
						// the ownership check and the sample (extraction
						// emptied the row). Keep the walker live: the next
						// round forwards it to the new owner, which holds
						// the rows.
						continue
					}
					wk.Rng = f.rng[i].State()
					retire = append(retire, wk)
					drop[i] = true
					continue
				}
				seg.local++
				wk.Local++
				heat[plan.BlockOf(wk.Cur)]++
				seg.steps++
				wk.Steps++
				wk.Left--
				wk.Cur = f.next[i]
				f.cur[i] = f.next[i]
				if wk.Record {
					wk.Path = append(wk.Path, wk.Cur)
				}
				if wk.Left == 0 {
					wk.Rng = f.rng[i].State()
					retire = append(retire, wk)
					drop[i] = true
				}
			}
			for i := m; i < live; i++ {
				wk := wks[i]
				drop[i] = false
				r := f.rng[i]
				if vw, stale := n.remoteView(wk.Cur); vw != nil {
					// A non-owned vertex served from a peer's shipped
					// view: the hop that used to cost a hand-off.
					next, sampled := vw.Sample(r)
					if !sampled {
						wk.Rng = r.State()
						retire = append(retire, wk)
						drop[i] = true
						continue
					}
					seg.remote++
					wk.Remote++
					heat[plan.BlockOf(wk.Cur)]++
					seg.steps++
					wk.Steps++
					wk.Left--
					wk.Cur = next
					f.cur[i] = next
					if wk.Record {
						wk.Path = append(wk.Path, next)
					}
					if wk.Left == 0 {
						wk.Rng = r.State()
						retire = append(retire, wk)
						drop[i] = true
					}
				} else {
					owner := plan.Owner(wk.Cur)
					if stale {
						n.remoteStaleN.Add(1)
					}
					n.maybeRequestView(wk.Cur, owner)
					seg.transfers++
					wk.Transfers++
					wk.Rng = r.State()
					if err := n.port.ForwardWalker(owner, wk); err != nil {
						// The peer stream is gone. Retire the walker as
						// failed; without replication the coordinator
						// unblocks its caller with an error instead of
						// passing off a truncated walk. Under replication
						// a dead peer is survivable — the coordinator
						// re-routes the failed walker to a live replica,
						// so the error is not this node's to record.
						if n.planNow().Replicas <= 1 {
							n.setErr(err)
						}
						wk.Failed = true
						retire = append(retire, wk)
					}
					drop[i] = true
				}
			}
			// Compact dropped slots out of the frontier.
			for i := 0; i < live; {
				if !drop[i] {
					i++
					continue
				}
				live--
				f.swap(i, live)
				wks[i], wks[live] = wks[live], wks[i]
				drop[i], drop[live] = drop[live], drop[i]
			}
			// Flush the round's tallies before retiring its walkers: a
			// retired walker's steps must already be visible in the node
			// counters when the coordinator observes the retirement.
			for b, s := range heat {
				n.bumpBlockSteps(b, s)
				delete(heat, b)
			}
			n.steps.Add(seg.steps)
			n.transfers.Add(seg.transfers)
			n.local.Add(seg.local)
			n.remote.Add(seg.remote)
			var hits, stale int64
			k.flushCacheStats(&hits, &stale)
			if hits != 0 {
				n.localHits.Add(hits)
			}
			if stale != 0 {
				n.localStale.Add(stale)
			}
			for _, wk := range retire {
				if err := n.port.Retire(wk); err != nil {
					n.setErr(err)
				}
			}
		}
	}
}

// remoteView returns a valid cached view of non-owned vertex u, if any.
func (n *shardNode) remoteView(u graph.VertexID) (vw *core.VertexView, stale bool) {
	if n.rv == nil {
		return nil, false
	}
	return n.rv.get(u)
}

// maybeRequestView fires an asynchronous view request for a non-owned
// vertex that keeps costing hand-offs. Best-effort: a failed request is
// dropped (the hand-off path still works) and the in-flight marker
// cleared so a later crossing can retry.
func (n *shardNode) maybeRequestView(u graph.VertexID, owner int) {
	if n.rv == nil || !n.rv.noteCrossing(u) {
		return
	}
	n.viewReqs.Add(1)
	if err := n.port.RequestView(owner, &fabric.ViewRequest{From: n.shard, Vertex: u}); err != nil {
		n.rv.clearInflight(u)
	}
}

// obsSample flattens the node's tallies for the barrier ack — the wire
// leg of fleet-wide /metrics. Daemon nodes append their whole process
// registry (fabric frames, kernel rounds); in-process nodes stop at the
// node tallies so the shared registry is not duplicated per shard.
func (n *shardNode) obsSample() obs.Sample {
	if !obs.On() {
		return obs.Sample{}
	}
	s := obs.Sample{Counters: []obs.KV{
		{Key: "bingo_node_steps_total", Val: n.steps.Load()},
		{Key: "bingo_node_transfers_total", Val: n.transfers.Load()},
		{Key: "bingo_node_local_steps_total", Val: n.local.Load()},
		{Key: "bingo_node_remote_steps_total", Val: n.remote.Load()},
		{Key: "bingo_node_updates_total", Val: n.updates.Load()},
		{Key: "bingo_node_dropped_batches_total", Val: n.dropped.Load()},
		{Key: "bingo_node_migrated_edges_total", Val: n.migratedIn.Load()},
		{Key: "bingo_node_cache_local_hits_total", Val: n.localHits.Load()},
		{Key: "bingo_node_cache_local_stale_total", Val: n.localStale.Load()},
		{Key: "bingo_node_cache_remote_stale_total", Val: n.remoteStaleN.Load()},
		{Key: "bingo_node_view_requests_total", Val: n.viewReqs.Load()},
		{Key: "bingo_node_views_served_total", Val: n.viewsServed.Load()},
	}}
	if n.procWide {
		s.Counters = append(s.Counters, obs.Default.Sample().Counters...)
	}
	return s
}

// tallies returns the node's cumulative ack tallies: what every barrier
// ack carries to the coordinator, and what an in-process session reads
// live in its place.
func (n *shardNode) tallies() *fabric.Ack {
	return &fabric.Ack{
		Shard:    n.shard,
		Updates:  n.updates.Load(),
		Dropped:  n.dropped.Load(),
		Vertices: n.e.NumVertices(),
		Steps:    n.steps.Load(),
		Cache:    n.cacheTallies(),
	}
}

// ingestLoop applies the shard's routed sub-batches in arrival order and
// acknowledges barriers with the node's cumulative tallies (the ack is
// what makes distributed ingest progress observable at the coordinator).
// Every ingest element also carries the coordinator's routed-update
// watermarks, which invalidate remote views that may predate in-flight
// updates. Consumed update events (and bootstrap rows) are credited back
// to the coordinator after every element — the drain signal its credit
// window blocks Feed on. Control elements (barriers, offers, commits,
// liveness flips, plan snapshots) are free: they are coordinator-paced
// and bounding them would deadlock the very recovery paths that run
// while the window is full.
func (n *shardNode) ingestLoop() {
	defer n.loops.Done()
	for {
		in, ok := n.port.NextIngest()
		if !ok {
			return
		}
		if n.rv != nil && len(in.Watermarks) > 0 {
			n.rv.advance(in.Watermarks)
		}
		if in.Plan != nil {
			n.installPlanState(in.Plan)
			continue
		}
		if in.Down.Epoch != 0 {
			n.handleDown(&in.Down)
			continue
		}
		if in.Offer.Epoch != 0 {
			n.handleOffer(&in.Offer)
			continue
		}
		if in.Commit.Epoch != 0 {
			n.handleCommit(&in.Commit)
			continue
		}
		if in.IsBarrier() {
			a := n.tallies()
			a.Seq = in.Barrier
			a.Obs = n.obsSample()
			if err := n.firstErr(); err != nil {
				a.Err = err.Error()
			}
			if in.Dump {
				if d, ok := n.e.(EdgeDumper); ok {
					a.Edges = d.DumpEdges()
					if plan := n.planNow(); plan.Replicas > 1 {
						// Under replication every row lives on every live
						// group member; dump only the edges this shard
						// *owns* under the barrier-point plan so the
						// coordinator's concatenation stays an exact
						// partition. Liveness flips ride the same FIFO
						// streams as barrier tokens, so every shard filters
						// against the same dead-mask here.
						kept := a.Edges[:0]
						for _, ed := range a.Edges {
							if plan.Owner(ed.Src) == n.shard {
								kept = append(kept, ed)
							}
						}
						a.Edges = kept
					}
				}
			}
			if in.Heat {
				a.Heat = n.heatReport()
			}
			if err := n.port.Ack(a); err != nil {
				n.setErr(err)
			}
			continue
		}
		if len(in.Ups) > 0 {
			if err := n.e.ApplyUpdates(in.Ups); err != nil {
				n.dropped.Add(1)
				n.setErr(err)
				if !in.Boot {
					n.consumed.Add(int64(len(in.Ups)))
				}
			} else if !in.Boot {
				// Bootstrap rows bypass updates/consumed: they are not feed
				// events, and inflating the stream position would corrupt
				// hub-view watermark stamps (see the field comments). They
				// still consume queue space, so they are credited below.
				n.updates.Add(int64(len(in.Ups)))
				n.consumed.Add(int64(len(in.Ups)))
			}
			n.credited.Add(int64(len(in.Ups)))
			// Best-effort: credits are cumulative, so a dropped send is
			// repaired by the next one; a dead link is the coordinator's
			// EvShardDown to handle, not ours.
			_ = n.port.Credit(&fabric.Credit{Shard: n.shard, Credited: n.credited.Load()})
		}
	}
}

// installPlanState adopts the coordinator's plan snapshot — the first
// element on a rejoined daemon's ingest stream, catching it up on every
// overlay flip and liveness flip it missed while down. Geometry fields
// come from the node's own plan (the snapshot carries none).
func (n *shardNode) installPlanState(ps *fabric.PlanState) {
	plan := n.planNow()
	if plan.Epoch >= ps.Epoch {
		return
	}
	plan.Epoch = ps.Epoch
	plan.DeadMask = ps.DeadMask
	plan.Overlay = nil
	if len(ps.Overlay) > 0 {
		plan.Overlay = make(map[uint64]int, len(ps.Overlay))
		for b, o := range ps.Overlay {
			plan.Overlay[b] = o
		}
	}
	n.setPlan(plan)
	if n.rv != nil {
		n.rv.dropAll()
	}
}

// handleDown applies a shard-liveness flip (Up=false: death, Up=true:
// failback). Its position in the FIFO ingest stream is what makes the
// dead-mask consistent across the fleet at barrier points. Epoch-guarded
// like every plan mutation; a replay is a no-op.
func (n *shardNode) handleDown(sd *fabric.ShardDown) {
	plan := n.planNow()
	if plan.Epoch >= sd.Epoch {
		return
	}
	var next ShardPlan
	var err error
	if sd.Up {
		next, err = plan.WithUp(sd.Shard, sd.Epoch)
	} else {
		next, err = plan.WithDown(sd.Shard, sd.Epoch)
	}
	if err != nil {
		n.setErr(err)
		return
	}
	n.setPlan(next)
	if n.rv != nil {
		// A liveness flip re-chains ownership of whole block families;
		// cached views stamped under the old chain are all suspect.
		n.rv.dropAll()
	}
}

// handleOffer is the donor half of a block migration. Its position in
// the ingest stream is the linearization point: every routed update
// published to this shard before the offer has already been applied (the
// single ingester runs them in order), so the extracted rows are exactly
// the block's state as of the router's flip. The plan flips *before*
// extraction — from the store on, crews forward the block's walkers to
// the recipient, and a crew that raced the flip and sampled an emptied
// row re-dispatches on the dead-end recheck instead of retiring short.
func (n *shardNode) handleOffer(of *fabric.MigrateOffer) {
	if of.Copy {
		n.handleCopyOffer(of)
		return
	}
	plan := n.planNow()
	if plan.Epoch >= of.Epoch {
		return // replayed offer; the flip already happened
	}
	next, err := plan.WithOverlay(of.Block, of.To, of.Epoch)
	if err != nil {
		n.setErr(err)
		return
	}
	ex, ok := n.e.(RangeExtractor)
	if !ok {
		// The serving runtimes refuse to start a rebalancer over engines
		// without extraction, so this is a protocol violation; keep the
		// rows (no flip) but complete the handshake so the recipient's
		// ingest stream is not wedged waiting for a block.
		n.setErr(fmt.Errorf("walk: shard %d engine cannot extract rows; migration of block %d refused", n.shard, of.Block))
		n.sendBlock(of, n.consumed.Load(), nil)
		return
	}
	wm := n.consumed.Load()
	n.setPlan(next)
	lo, hi := plan.BlockRange(of.Block)
	rows, err := ex.ExtractRange(lo, hi)
	if err != nil {
		n.setErr(err)
	}
	n.sendBlock(of, wm, rows)
}

// handleCopyOffer is the donor half of replica priming: snapshot the
// block's rows and ship them to the rejoining shard *without* giving
// anything up — no plan flip, the donor keeps serving the block. The
// FIFO position is still the linearization point: the snapshot reflects
// exactly the routed updates published to this donor before the offer,
// and the coordinator starts fanning the routed stream out to the
// recipient at the same instant it sends the offer, so snapshot + direct
// stream covers every update with no loss and no duplication. Copy
// epochs live in their own number space (they never touch plan.Epoch),
// so no epoch guard applies.
func (n *shardNode) handleCopyOffer(of *fabric.MigrateOffer) {
	sn, ok := n.e.(RangeSnapshotter)
	if !ok {
		n.setErr(fmt.Errorf("walk: shard %d engine cannot snapshot rows; copy of block %d refused", n.shard, of.Block))
		n.sendBlock(of, n.consumed.Load(), nil)
		return
	}
	wm := n.consumed.Load()
	lo, hi := n.planNow().BlockRange(of.Block)
	rows, err := sn.SnapshotRange(lo, hi)
	if err != nil {
		n.setErr(err)
	}
	n.sendBlock(of, wm, rows)
}

func (n *shardNode) sendBlock(of *fabric.MigrateOffer, wm int64, rows []graph.Update) {
	mb := &fabric.MigrateBlock{Block: of.Block, From: n.shard, Epoch: of.Epoch, Watermark: wm, Rows: rows}
	if err := n.port.SendBlock(of.To, mb); err != nil {
		if of.Copy || n.planNow().Replicas > 1 {
			// The recipient died again mid-priming (or a replicated
			// session's peer stream hiccuped): the coordinator sees its
			// own EvShardDown and re-runs the rejoin; poisoning the donor
			// would turn one flaky rejoiner into a session failure.
			return
		}
		n.setErr(err)
	}
}

// handleCommit installs a block migration's ownership flip. The
// recipient blocks its ingest stream on the donor's MigrateBlock first —
// routed updates for the moved block are queued *behind* this commit
// (the router flips before publishing it), so they apply onto installed
// rows and per-source order holds across the flip. Everyone drops cached
// remote views of the moved block: their Applied stamps name the donor's
// update stream, which the new owner's updates would never invalidate.
func (n *shardNode) handleCommit(cm *fabric.MigrateCommit) {
	if cm.Copy {
		// Copy commits install only — no plan flips anywhere (the donor
		// keeps the block; liveness is restored later by a ShardDown
		// Up-flip once every copy landed), and only the recipient acts.
		if cm.To == n.shard {
			n.installCopy(cm)
		}
		return
	}
	if cm.To == n.shard {
		n.installBlock(cm)
	} else if plan := n.planNow(); plan.Epoch < cm.Epoch {
		// Bystander (or the donor replaying a commit it already applied
		// at the offer): flip to the announced ownership.
		next, err := plan.WithOverlay(cm.Block, cm.To, cm.Epoch)
		if err != nil {
			n.setErr(err)
		} else {
			n.setPlan(next)
		}
	}
	if n.rv != nil {
		n.rv.dropBlock(n.planNow().RangeSize, cm.Block)
	}
}

// installBlock is the recipient half: wait for the donor's rows, install
// them, then flip the plan (in that order — crews must not find the block
// owned here before its rows exist; until the flip they keep forwarding
// its walkers toward the donor, which bounces them back post-offer, a
// bounded hand-off loop that ends at the flip below).
func (n *shardNode) installBlock(cm *fabric.MigrateCommit) {
	done := &fabric.MigrateDone{Shard: n.shard, Block: cm.Block, Epoch: cm.Epoch}
	mb, ok := n.takeBlock(cm.Block, cm.Epoch)
	switch {
	case !ok:
		// Session ended mid-migration; the coordinator's death handling
		// owns the fallout.
		n.setErr(ErrFabricDown)
		return
	case mb.Watermark < cm.MinWatermark:
		// The donor extracted before applying every update the router
		// counted toward it at the offer — the FIFO ordering the whole
		// protocol rests on did not hold.
		done.Err = fmt.Sprintf("walk: block %d shipped at donor watermark %d below commit minimum %d",
			cm.Block, mb.Watermark, cm.MinWatermark)
	default:
		if len(mb.Rows) > 0 {
			// Installs bypass the routed-update counters on purpose: they
			// are not feed events, and inflating `consumed` would corrupt
			// the hub views' watermark stamps (see the field comments).
			if err := n.e.ApplyUpdates(mb.Rows); err != nil {
				done.Err = err.Error()
			} else {
				n.migratedIn.Add(int64(len(mb.Rows)))
				done.Edges = int64(len(mb.Rows))
			}
		}
	}
	if done.Err != "" {
		n.setErr(errors.New(done.Err))
	}
	// The plan flips even when the install failed: the coordinator and
	// the donor have already flipped (router before commit, donor at the
	// offer), so refusing here would leave donor and recipient pointing
	// at each other and turn the documented bounded walker bounce into a
	// livelock. A failed install is a recorded data error (Err above,
	// surfaced through the MigrateDone and the session Err) on a block
	// that now serves whatever rows landed — never a hang.
	if plan := n.planNow(); plan.Epoch < cm.Epoch {
		next, err := plan.WithOverlay(cm.Block, cm.To, cm.Epoch)
		if err != nil {
			n.setErr(err)
		} else {
			n.setPlan(next)
		}
	}
	if err := n.port.Migrated(done); err != nil {
		n.setErr(err)
	}
}

// takeBlock returns the block payload matching (block, epoch), blocking
// on the block mailbox until it arrives. Rebalancing ships one block at
// a time per recipient, but replica priming copies from *several* donors
// whose peer streams interleave arbitrarily — payloads for commits the
// ingester has not reached yet are parked in the stash, and a commit
// whose payload already arrived is served from it without touching the
// mailbox. Copy epochs and plan epochs live in disjoint number spaces,
// so the (block, epoch) key never collides across the two protocols.
func (n *shardNode) takeBlock(block, epoch uint64) (*fabric.MigrateBlock, bool) {
	key := blockKey{block, epoch}
	if mb, ok := n.stash[key]; ok {
		delete(n.stash, key)
		return mb, true
	}
	for {
		mb, ok := n.port.NextBlock()
		if !ok {
			return nil, false
		}
		if mb.Block == block && mb.Epoch == epoch {
			return mb, true
		}
		n.stash[blockKey{mb.Block, mb.Epoch}] = mb
	}
}

// installCopy is the recipient half of replica priming: wait for the
// donor's snapshot and install it. No plan flips (the coordinator
// restores this shard's liveness with an Up-flip after every block
// landed), no walker-bounce concerns (nothing routes walkers here while
// the shard is still masked dead). Routed updates for the block queue
// behind this commit on the FIFO stream and apply onto the installed
// rows, exactly like a migration install.
func (n *shardNode) installCopy(cm *fabric.MigrateCommit) {
	done := &fabric.MigrateDone{Shard: n.shard, Block: cm.Block, Epoch: cm.Epoch, Copy: true}
	mb, ok := n.takeBlock(cm.Block, cm.Epoch)
	switch {
	case !ok:
		n.setErr(ErrFabricDown)
		return
	case mb.Watermark < cm.MinWatermark:
		done.Err = fmt.Sprintf("walk: copied block %d shipped at donor watermark %d below commit minimum %d",
			cm.Block, mb.Watermark, cm.MinWatermark)
	default:
		// Wipe the range first: a link that bounced without losing the
		// process re-primes onto an engine that still holds the block's
		// rows, and applying the snapshot on top would duplicate every
		// edge. The wipe makes copy installs idempotent; on a freshly
		// restarted daemon it extracts nothing.
		if ex, ok := n.e.(RangeExtractor); ok {
			lo, hi := n.planNow().BlockRange(cm.Block)
			if _, err := ex.ExtractRange(lo, hi); err != nil {
				done.Err = err.Error()
			}
		}
		if done.Err == "" && len(mb.Rows) > 0 {
			// Same counter discipline as migration installs: snapshot rows
			// are not feed events (see installBlock).
			if err := n.e.ApplyUpdates(mb.Rows); err != nil {
				done.Err = err.Error()
			} else {
				n.migratedIn.Add(int64(len(mb.Rows)))
				done.Edges = int64(len(mb.Rows))
			}
		}
	}
	if done.Err != "" {
		n.setErr(errors.New(done.Err))
	}
	if err := n.port.Migrated(done); err != nil {
		n.setErr(err)
	}
}

// heatReport snapshots the node's per-block heat: cumulative sampled
// hops from the crews' tallies, plus the live degree mass of every block
// whose rows this engine holds (an O(V) degree scan — heat barriers are
// rebalancer-paced, not per-request). Blocks with neither steps nor
// edges are omitted.
func (n *shardNode) heatReport() []fabric.BlockHeat {
	plan := n.planNow()
	agg := map[uint64]fabric.BlockHeat{}
	n.heatMu.Lock()
	for b, s := range n.blockSteps {
		agg[b] = fabric.BlockHeat{Block: b, Steps: s}
	}
	n.heatMu.Unlock()
	nv := n.e.NumVertices()
	for v := 0; v < nv; v++ {
		d := n.e.Degree(graph.VertexID(v))
		if d == 0 {
			continue
		}
		b := plan.BlockOf(graph.VertexID(v))
		e := agg[b]
		e.Block = b
		e.Edges += int64(d)
		agg[b] = e
	}
	out := make([]fabric.BlockHeat, 0, len(agg))
	for _, e := range agg {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block < out[j].Block })
	return out
}

// viewLoop drains the node's view stream: it answers peers' requests
// with versioned views of owned hubs and installs peers' replies into
// the remote cache.
func (n *shardNode) viewLoop() {
	defer n.loops.Done()
	minDeg := n.cache.MinDegree
	if minDeg <= 0 {
		minDeg = DefaultHubMinDegree
	}
	for {
		m, ok := n.port.NextView()
		if !ok {
			return
		}
		switch {
		case m.Req != nil:
			rq := m.Req
			// Origin is echoed so the transport can route a reader's
			// reply back to the reader that asked (0 = peer shard).
			rp := &fabric.ViewReply{From: n.shard, Vertex: rq.Vertex, Origin: rq.Origin}
			// Degree-gate before extracting: a non-hub reply must not pay
			// the O(degree) view copy it would immediately discard.
			if n.ve != nil && n.e.Degree(rq.Vertex) >= minDeg {
				// The Applied stamp (ingest-stream position consumed) is
				// read before extraction: the view can only be newer than
				// its stamp claims, so watermark validation errs toward
				// dropping, never toward serving stale state.
				applied := n.consumed.Load()
				vw := n.ve.ViewOf(rq.Vertex)
				if vw.Degree() >= minDeg {
					rp.Hub = true
					rp.Applied = applied
					rp.View = *vw
				}
			}
			n.viewsServed.Add(1)
			if err := n.port.ReplyView(rq.From, rp); err != nil {
				// Best-effort: the requester's in-flight marker clears on
				// its next watermark advance or stays conservative.
				continue
			}
		case m.Rep != nil:
			if n.rv != nil {
				n.rv.install(m.Rep)
			}
		}
	}
}

// ShardNodeStats summarizes one hosted shard's activity (daemon telemetry).
type ShardNodeStats struct {
	Steps, Transfers, Local int64
	Updates, Dropped        int64
	// MigratedEdges counts edges this node installed from ownership
	// blocks migrated onto it.
	MigratedEdges int64
	Vertices      int
	Edges         int64
	Cache         fabric.CacheTallies
}

// RunShardNode hosts engine e as shard `shard` of plan behind the given
// fabric port: crew walker goroutines plus one ingester and one view
// server, exactly the node half of ShardedLiveService. The cache spec
// configures the hub-view caches (zero value = defaults, on; it only
// takes effect when e implements ViewSampler); kernel selects the crews'
// stepping mode (zero value = auto). It blocks until the coordinator
// ends the session (or the fabric fails), then reports the node's
// tallies and the first ingest error. This is the body of
// `bingowalk -shard-serve`.
func RunShardNode(e LiveEngine, plan ShardPlan, shard int, port fabric.ShardPort, crew int, cache fabric.CacheSpec, kernel KernelMode) (ShardNodeStats, error) {
	n := startShardNode(e, plan, shard, port, crew, cache, kernel, true)
	n.wait()
	st := ShardNodeStats{
		Steps:         n.steps.Load(),
		Transfers:     n.transfers.Load(),
		Local:         n.local.Load(),
		Updates:       n.updates.Load(),
		Dropped:       n.dropped.Load(),
		MigratedEdges: n.migratedIn.Load(),
		Vertices:      e.NumVertices(),
		Cache:         n.cacheTallies(),
	}
	if ne, ok := e.(interface{ NumEdges() int64 }); ok {
		st.Edges = ne.NumEdges()
	}
	return st, n.firstErr()
}
