package walk

import (
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
// Since the shard-fabric extraction, the service is literally a
// coordinator plus N shard nodes wired over the in-process fabric
// (internal/fabric/inproc): all cross-shard communication — walker
// hand-offs, routed update publishes, barriers, retires — flows through
// fabric ports, and the identical coordinator/node logic runs across
// processes over the TCP fabric (RemoteService, `bingowalk -shard-serve`).
// Walker delivery is unbounded and retires never block, so circular
// forwarding between shards cannot deadlock. Close drains the feed, waits
// for in-flight walkers, and stops the crews.
type ShardedLiveService struct {
	engines []LiveEngine
	nodes   []*shardNode
	coord   *coordinator
	fab     *inproc.Fabric // retained so read-coordinators can attach
	plan    ShardPlan
	cfg     ShardedLiveConfig
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
	// live; remote services as of the last Sync.
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
	s := &ShardedLiveService{
		engines: engines,
		nodes:   make([]*shardNode, plan.Shards),
		fab:     fab,
		plan:    plan,
		cfg:     cfg,
	}
	for i := range engines {
		s.nodes[i] = startShardNode(engines[i], plan, i, fab.ShardPort(i), cfg.WalkersPerShard, cfg.Cache, cfg.Kernel, false)
	}
	s.coord = newCoordinator(fab.CoordPort(), plan, cfg)
	s.coord.noteVerts(int64(s.NumVertices()))
	return s, nil
}

// Shards returns the partition count.
func (s *ShardedLiveService) Shards() int { return s.plan.Shards }

// Plan returns the partition geometry.
func (s *ShardedLiveService) Plan() ShardPlan { return s.plan }

// NumVertices returns the widest vertex space across the shard engines —
// the service-level ID space (shards grow independently under the feed).
func (s *ShardedLiveService) NumVertices() int {
	n := 0
	for _, e := range s.engines {
		if v := e.NumVertices(); v > n {
			n = v
		}
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

// Sync blocks until every feed batch accepted before the call has been
// applied (or dropped) on its shards, then reports the first ingest error.
// It is the barrier between "fed" and "visible to walkers".
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

// Stats returns a snapshot of the service counters. Walk-side counters
// (Steps, Transfers, Local) are read live from the shard nodes; Queries
// and Batches from the coordinator.
func (s *ShardedLiveService) Stats() ShardedLiveStats {
	st := ShardedLiveStats{
		Queries:    s.coord.queries.Load(),
		Batches:    s.coord.batches.Load(),
		ShardSteps: make([]int64, len(s.nodes)),
	}
	for i, n := range s.nodes {
		st.ShardSteps[i] = n.steps.Load()
		st.Steps += st.ShardSteps[i]
		st.Transfers += n.transfers.Load()
		st.Local += n.local.Load()
		st.Updates += n.updates.Load()
		st.Dropped += n.dropped.Load()
		st.Cache.Add(n.cacheTallies())
	}
	st.Rebalance = s.coord.rebalanceTallies()
	st.Failover = s.coord.failoverTallies()
	st.Backpressure.Window = s.coord.window
	st.Backpressure.MaxOutstanding, st.Backpressure.Stalled = s.coord.backpressureTallies()
	return st
}

// Plan returns the live ownership plan (overlay included); the Plan
// method above returns the construction-time geometry.
func (s *ShardedLiveService) LivePlan() ShardPlan { return s.coord.planNow() }

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
// write session closes.
func (s *ShardedLiveService) AttachReader(cfg ReaderConfig) (*ReaderService, error) {
	if cfg.WalkLength <= 0 {
		cfg.WalkLength = s.cfg.WalkLength
	}
	return NewReaderService(s.fab.AttachReader(), cfg)
}

// Err returns the first ingest error observed (nil if none).
func (s *ShardedLiveService) Err() error {
	for _, n := range s.nodes {
		if err := n.firstErr(); err != nil {
			return err
		}
	}
	return s.coord.Err()
}

// Close drains the feed (queued batches are applied), waits for every
// in-flight walker to retire, stops the crews and ingesters, and returns
// the first ingest error. Close is idempotent; Query, Feed, Sync, and
// DeepWalk fail with ErrLiveClosed afterwards.
func (s *ShardedLiveService) Close() error {
	s.coord.Close()
	for _, n := range s.nodes {
		n.wait()
	}
	return s.Err()
}
