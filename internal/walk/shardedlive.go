package walk

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/inproc"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/rebalance"
)

// ShardedLiveService is the multi-lock-domain serving runtime: N per-shard
// live engines, each owning the vertices of one ShardPlan slot, behind a
// single Query/Feed front. Where LiveService puts every walker and the
// ingest loop into one engine's lock domain, the sharded service gives each
// shard its own engine, its own walker crew, and its own ingester —
// writers on shard A never contend with walkers on shard B.
//
// The execution model is the supplement §9.1 topology made live:
//
//   - Walkers, not sampling structures, move. A query walk starts on the
//     shard owning its start vertex, advances while it remains on owned
//     vertices, and is handed to the owning shard the moment it crosses a
//     partition boundary ("transferring walkers has the light burden of
//     communication").
//   - Feed batches pass through a single router that splits them by
//     Owner(Src) and publishes the pieces on per-shard ingest streams. One
//     router plus one ingester per shard keeps per-source order: all of a
//     source's updates land on one stream, in feed order.
//   - Ownership is total over the vertex-ID space (ShardPlan is
//     block-cyclic), so engines growing their vertex space under the feed
//     never produce an out-of-range owner. A walker stepping onto a vertex
//     the owner's engine has not yet sized simply observes it edgeless —
//     the same dead-end the unsharded engine reports before the inserting
//     batch lands.
//
// The service is a coordinator over a fabric port, whatever carries it.
// NewShardedLiveService wires the coordinator and N shard nodes it
// starts itself over the in-process fabric (internal/fabric/inproc):
// all cross-shard communication — walker hand-offs, routed update
// publishes, barriers, retires — flows through fabric ports.
// NewShardedLiveServiceOver runs the identical coordinator over a port
// whose shard nodes it cannot see into — in practice N `bingowalk
// -shard-serve` daemons reached over the tcpgob fabric. Walker delivery
// is unbounded and retires never block, so circular forwarding between
// shards cannot deadlock. Close drains the feed, waits for in-flight
// walkers, and stops the crews.
//
// Per-shard tallies (Updates, Dropped, ShardSteps, Cache) and the grown
// vertex space come from one ack-shaped record per shard: an in-process
// session reads it live from its nodes; a port session sees it through
// barrier acks, exact as of the last Sync (every ack carries cumulative
// tallies).
//
// Backpressure: beyond the coordinator's feed queue, a per-shard credit
// window bounds the update events in flight toward each shard (routed
// but not yet applied — shards credit consumed events back on the event
// stream). A feeder that outruns the shards' apply rate blocks in Feed
// instead of growing shard-side queues; ShardedLiveConfig.CreditWindow
// sizes the window.
type ShardedLiveService struct {
	coord *coordinator
	verts int // construction-time vertex space (tallies can only widen it)
	// nodes and fab are set only when the service started its own shard
	// nodes over the in-process fabric.
	nodes []*shardNode
	fab   *inproc.Fabric // retained so read-coordinators can attach
}

// ShardedLiveConfig parameterizes a ShardedLiveService.
type ShardedLiveConfig struct {
	// WalkersPerShard is each shard's walker-crew size (default
	// max(1, GOMAXPROCS / shards)).
	WalkersPerShard int
	// QueueDepth is the buffer depth of the feed and per-shard ingest
	// queues (default 256). A full feed queue applies backpressure.
	QueueDepth int
	// WalkLength is the default walk length for Query calls that pass
	// length <= 0 (default 80).
	WalkLength int
	// Seed makes the per-query RNG streams reproducible.
	Seed uint64
	// Cache configures the hub-view caches of every shard node (zero
	// value = enabled with defaults; Cache.Off disables). It takes
	// effect only when the shard engines support versioned views
	// (concurrent.Engine does).
	Cache fabric.CacheSpec
	// Kernel selects the shard crews' stepping-kernel mode (zero value =
	// auto): sparse per-walker stepping, dense batch draws, or the
	// density-adaptive switch.
	Kernel KernelMode
	// Rebalance configures the heat-aware shard rebalancer (off unless
	// Rebalance.On). It requires engines with row extraction
	// (concurrent.Engine); the in-process service validates this at
	// construction.
	Rebalance rebalance.Options
	// CreditWindow bounds the per-shard in-flight (routed but not yet
	// applied) update events. The router stalls — and Feed with it —
	// while a shard's outstanding window is full, turning the daemons'
	// apply rate into end-to-end backpressure instead of unbounded
	// daemon-side queue growth. 0 selects the default (16384); negative
	// disables the window (the pre-credit behavior).
	CreditWindow int
}

// DefaultCreditWindow is the per-shard credit window when the config
// leaves CreditWindow zero.
const DefaultCreditWindow = 16384

func (c ShardedLiveConfig) withDefaults(shards int) ShardedLiveConfig {
	if c.WalkersPerShard <= 0 {
		c.WalkersPerShard = runtime.GOMAXPROCS(0) / shards
		if c.WalkersPerShard < 1 {
			c.WalkersPerShard = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.WalkLength <= 0 {
		c.WalkLength = 80
	}
	if c.CreditWindow == 0 {
		c.CreditWindow = DefaultCreditWindow
	}
	return c
}

// ShardedLiveStats snapshots the service counters. Steps, Transfers, and
// Local cover query and bulk walks alike; Batches counts routed feed
// batches, Updates successfully applied events, Dropped failed sub-batches
// (a feed batch splits into at most one sub-batch per shard). Cache
// reports the hub-view cache layers: Cache.RemoteHits are steps at
// non-owned vertices served from a peer's shipped view instead of a
// walker hand-off.
type ShardedLiveStats struct {
	Queries, Steps            int64
	Batches, Updates, Dropped int64
	Transfers, Local          int64
	Cache                     fabric.CacheTallies
	// ShardSteps is the per-shard split of Steps (indexed by shard) — the
	// load-share view the rebalancer acts on. In-process services read it
	// live; port services as of the last Sync. A shard counts every hop it
	// sampled, attached readers' walkers included, so with readers the
	// sum exceeds Steps.
	ShardSteps []int64
	// Corpus tallies the standing-walk-corpus maintenance riding on this
	// service, when one is attached (see CorpusService.ShardedStats; the
	// raw service leaves it zero).
	Corpus fabric.CorpusTallies
	// Rebalance tallies the heat-aware rebalancer's activity.
	Rebalance RebalanceTallies
	// Failover tallies replica-failover activity (replicated sessions).
	Failover FailoverTallies
	// Backpressure reports the credit window's activity.
	Backpressure BackpressureTallies
}

// FailoverTallies reports a replicated session's failover activity.
type FailoverTallies struct {
	// Deaths counts shard-link death events; Reroutes walkers re-routed
	// to a replica after a forward hit a dead link; Relaunches walker
	// clones relaunched because their originals may have been lost inside
	// a dead daemon.
	Deaths, Reroutes, Relaunches int64
	// Rejoins counts completed rejoin/failback cycles; CopiedBlocks the
	// snapshot blocks shipped while re-priming rejoined shards.
	Rejoins, CopiedBlocks int64
}

// BackpressureTallies reports the credit window's observed pressure.
type BackpressureTallies struct {
	// Window is the configured per-shard credit window (0 = disabled).
	Window int64
	// MaxOutstanding is the largest admitted per-shard in-flight event
	// count; Stalled is the total time the router spent blocked waiting
	// for credits (the time Feed callers were held back).
	MaxOutstanding int64
	Stalled        time.Duration
}

// RebalanceTallies reports the rebalancer's cumulative activity.
type RebalanceTallies struct {
	// Migrations counts completed block migrations; MovedEdges the edges
	// they shipped.
	Migrations, MovedEdges int64
	// PlanEpoch is the live plan's overlay version (0 = never
	// rebalanced).
	PlanEpoch uint64
}

// TransferRatio is walker hand-offs per sampled hop — the share of walk
// progress that cost a cross-shard transfer. Every hop is served either
// by the owning engine (Local) or by a cached remote view
// (Cache.RemoteHits), so Steps = Local + RemoteHits and hand-offs the
// remote cache absorbed pull the ratio down.
func (s ShardedLiveStats) TransferRatio() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.Transfers) / float64(s.Steps)
}

// validateReplication rejects plan/config combinations replication
// cannot support: the rebalancing overlay (its redundancy-erasure
// conflicts with replica groups — the two are mutually exclusive) and
// shard counts beyond the 64-bit dead-mask.
func validateReplication(plan ShardPlan, cfg ShardedLiveConfig) error {
	if plan.Replicas <= 1 {
		return nil
	}
	if cfg.Rebalance.On {
		return fmt.Errorf("walk: replication (factor %d) and heat rebalancing are mutually exclusive", plan.Replicas)
	}
	if plan.Shards > 64 {
		return fmt.Errorf("walk: replication supports at most 64 shards (dead-mask width), got %d", plan.Shards)
	}
	return nil
}

// NewShardedLiveService starts the shard crews, the ingest router, and one
// ingester per shard, wired over the in-process shard fabric. engines[i]
// must already hold exactly the rows of the vertices plan assigns to shard
// i (see ShardPlan.PartitionCSR) and be safe for concurrent sampling and
// updating (e.g. concurrent.Engine). The service takes ownership of the
// engines.
func NewShardedLiveService(engines []LiveEngine, plan ShardPlan, cfg ShardedLiveConfig) (*ShardedLiveService, error) {
	if len(engines) == 0 || len(engines) != plan.Shards {
		return nil, fmt.Errorf("walk: %d shard engines for a %d-shard plan", len(engines), plan.Shards)
	}
	cfg = cfg.withDefaults(plan.Shards)
	if cfg.Rebalance.On {
		for i, e := range engines {
			if _, ok := e.(RangeExtractor); !ok {
				return nil, fmt.Errorf("walk: rebalancing needs row extraction, which shard %d's engine (%T) lacks", i, e)
			}
		}
	}
	if err := validateReplication(plan, cfg); err != nil {
		return nil, err
	}
	if plan.Replicas > 1 {
		for i, e := range engines {
			if _, ok := e.(RangeSnapshotter); !ok {
				return nil, fmt.Errorf("walk: replication needs row snapshots, which shard %d's engine (%T) lacks", i, e)
			}
		}
	}
	fab := inproc.New(plan.Shards, cfg.QueueDepth)
	s := &ShardedLiveService{nodes: make([]*shardNode, plan.Shards), fab: fab}
	for i := range engines {
		s.nodes[i] = startShardNode(engines[i], plan, i, fab.ShardPort(i), cfg.WalkersPerShard, cfg.Cache, cfg.Kernel, false)
		s.verts = max(s.verts, engines[i].NumVertices())
	}
	s.coord = newCoordinator(fab.CoordPort(), plan, cfg)
	s.coord.noteVerts(int64(s.verts))
	return s, nil
}

// NewShardedLiveServiceOver starts a coordinator over the given fabric
// port, whose shard nodes run elsewhere (daemons, or a test's own
// nodes). numVertices is the construction-time vertex space (the
// daemons size their engines from the same session Hello); the plan
// must match the geometry announced to the shards. The service takes
// ownership of the port: Close ends the session.
func NewShardedLiveServiceOver(port fabric.CoordPort, plan ShardPlan, numVertices int, cfg ShardedLiveConfig) (*ShardedLiveService, error) {
	cfg = cfg.withDefaults(plan.Shards)
	if err := validateReplication(plan, cfg); err != nil {
		return nil, err
	}
	s := &ShardedLiveService{coord: newCoordinator(port, plan, cfg), verts: numVertices}
	s.coord.noteVerts(int64(numVertices))
	return s, nil
}

// Shards returns the partition count.
func (s *ShardedLiveService) Shards() int { return s.coord.plan.Shards }

// Plan returns the construction-time partition geometry.
func (s *ShardedLiveService) Plan() ShardPlan { return s.coord.plan }

// LivePlan returns the live ownership plan (rebalancing overlay
// included).
func (s *ShardedLiveService) LivePlan() ShardPlan { return s.coord.planNow() }

// shardTallies returns each shard's cumulative tallies, indexed by
// shard: read live from the nodes of an in-process session, from the
// latest barrier acks of a port session.
func (s *ShardedLiveService) shardTallies() []fabric.Ack {
	if s.nodes != nil {
		acks := make([]fabric.Ack, len(s.nodes))
		for i, n := range s.nodes {
			acks[i] = *n.tallies()
		}
		return acks
	}
	s.coord.mu.Lock()
	defer s.coord.mu.Unlock()
	return append([]fabric.Ack(nil), s.coord.acks...)
}

// NumVertices returns the widest vertex space across the shards — the
// service-level ID space (shards grow independently under the feed). A
// port session's view is exact as of the last Sync and at least the
// construction-time space.
func (s *ShardedLiveService) NumVertices() int {
	n := s.verts
	for _, a := range s.shardTallies() {
		n = max(n, a.Vertices)
	}
	return n
}

// Query walks from start for up to length steps (<= 0 selects the
// configured default) and returns the visited path, start included. The
// walk begins on the shard owning start and follows the walker-transfer
// topology across shards; it blocks until the walker retires.
func (s *ShardedLiveService) Query(start graph.VertexID, length int) ([]graph.VertexID, error) {
	return s.coord.Query(start, length)
}

// Feed enqueues a batch for routed ingestion. It blocks when the feed
// queue is full (backpressure) and returns ErrLiveClosed after Close. The
// batch slice is owned by the service once accepted. Per-source ordering
// across Feed calls is preserved shard-side as long as the caller submits
// each source's updates in order (the LiveService contract, unchanged).
func (s *ShardedLiveService) Feed(ups []graph.Update) error {
	return s.coord.Feed(ups)
}

// bootstrapChunk bounds one bootstrap batch (updates per feed element):
// large enough to amortize framing, small enough that the credit window
// still paces the stream.
const bootstrapChunk = 1 << 16

// Bootstrap ships a snapshot to the shards through the fabric itself:
// each holder's rows travel as dedicated snapshot (Boot) batches —
// fanned to every replica, credit-paced, but excluded from the routed
// ledger and the shards' update tallies, so a bootstrapped session's
// Updates counter reflects feed events alone. A confirming barrier makes
// the call return only once every shard holds exactly the rows it must.
// Shared by Engine.ServeRemote, the CLI -connect path, and the bench tcp
// transport so bootstrap semantics cannot drift between them.
func (s *ShardedLiveService) Bootstrap(g *graph.CSR) error {
	s.coord.noteVerts(int64(g.NumVertices()))
	// Partition with replication stripped: each row must reach the router
	// exactly once — the router's boot path itself fans every update out
	// to all of its block's holders (PartitionCSR would otherwise
	// duplicate the rows a second time).
	base := s.coord.plan
	base.Replicas = 1
	for _, part := range base.PartitionCSR(g) {
		for len(part) > 0 {
			n := min(len(part), bootstrapChunk)
			if err := s.coord.feedBoot(part[:n]); err != nil {
				return err
			}
			part = part[n:]
		}
	}
	return s.Sync()
}

// Sync blocks until every feed batch accepted before the call has been
// applied (or dropped) on its shards, then reports the first ingest error.
// It is the barrier between "fed" and "visible to walkers", and it
// refreshes the ack-carried tallies a port session's Stats and
// NumVertices read.
func (s *ShardedLiveService) Sync() error {
	bw, err := s.coord.barrier(false, false)
	if err != nil {
		return err
	}
	if bw.err != nil {
		return bw.err
	}
	return s.Err()
}

// DeepWalk runs a bulk first-order walk through the sharded runtime while
// the feed keeps ingesting: every start becomes a transferable walker with
// its own RNG stream. It returns the run's own result and transfer stats
// (service counters accumulate them too), or ErrFabricDown if any walker
// failed or the fabric session ended mid-run.
func (s *ShardedLiveService) DeepWalk(cfg Config) (Result, TransferStats, error) {
	return s.coord.DeepWalk(cfg, s.NumVertices())
}

// DumpEdges reads back every shard's live edge multiset (indexed by
// shard), consistent with all feed batches accepted before the call —
// the verification path the differential harnesses use to match a
// session against a sequential replay edge-for-edge.
func (s *ShardedLiveService) DumpEdges() ([][]graph.Edge, error) {
	return s.coord.DumpEdges()
}

// Stats returns a snapshot of the service counters. Queries, Steps,
// Transfers, and Local are tallied as walkers resolve (first retire
// wins, so relaunched duplicates never double-count); the per-shard
// tallies are live for in-process shards and exact as of the last Sync
// for a port session.
func (s *ShardedLiveService) Stats() ShardedLiveStats {
	c := s.coord
	st := ShardedLiveStats{
		Queries:   c.queries.Load(),
		Steps:     c.steps.Load(),
		Batches:   c.batches.Load(),
		Transfers: c.transfers.Load(),
		Local:     c.local.Load(),
	}
	acks := s.shardTallies()
	st.ShardSteps = make([]int64, len(acks))
	for i, a := range acks {
		st.Updates += a.Updates
		st.Dropped += a.Dropped
		st.ShardSteps[i] = a.Steps
		st.Cache.Add(a.Cache)
	}
	st.Rebalance = c.rebalanceTallies()
	st.Failover = c.failoverTallies()
	st.Backpressure.Window = c.window
	st.Backpressure.MaxOutstanding, st.Backpressure.Stalled = c.backpressureTallies()
	return st
}

// AppliedStamp is the sum of the shards' cumulative applied-update
// stamps from the latest barrier acks — the watermark evidence the
// standing-walk corpus's bounded-staleness check reads. Exact as of the
// last Sync.
func (s *ShardedLiveService) AppliedStamp() int64 { return s.coord.appliedStamp() }

// AttachReader attaches a read-coordinator to this service's shard set
// over the in-process fabric: the returned ReaderService serves Query
// and DeepWalk against the same shard engines while this service (the
// write session) keeps exclusive ownership of ingest, credit flow, and
// rebalancing. Any number of readers may attach; each detaches
// independently with Close, and all fail over to ErrFabricDown when the
// write session closes. A port session has no in-process fabric to
// attach to: readers of daemon shards dial their own read port
// (tcpgob.DialReader) and call NewReaderService.
func (s *ShardedLiveService) AttachReader(cfg ReaderConfig) (*ReaderService, error) {
	if s.fab == nil {
		return nil, errors.New("walk: AttachReader needs an in-process session; dial a read port to the shards instead")
	}
	if cfg.WalkLength <= 0 {
		cfg.WalkLength = s.coord.cfg.WalkLength
	}
	return NewReaderService(s.fab.AttachReader(), cfg)
}

// Err returns the first ingest error observed (nil if none): an
// in-process session's own nodes first, then what the coordinator saw
// through acks.
func (s *ShardedLiveService) Err() error {
	for _, n := range s.nodes {
		if err := n.firstErr(); err != nil {
			return err
		}
	}
	return s.coord.Err()
}

// Close drains the feed (queued batches are applied), waits for every
// in-flight walker to retire, ends the fabric session (daemon shards
// drain, report, and exit; in-process crews and ingesters stop), and
// returns the first ingest error. Close is idempotent; Query, Feed,
// Sync, and DeepWalk fail with ErrLiveClosed afterwards.
func (s *ShardedLiveService) Close() error {
	s.coord.Close()
	for _, n := range s.nodes {
		n.wait()
	}
	return s.Err()
}
