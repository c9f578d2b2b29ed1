package bingo

// This file is the public face of the walk-while-ingest subsystem
// (internal/concurrent + walk.LiveService): Engine.Concurrent() upgrades an
// engine to full concurrency, and ConcurrentEngine.Serve() turns it into a
// query/feed service. See DESIGN.md ("Concurrency model") for the stripe and
// epoch protocol and its guarantees.

import (
	"fmt"
	"runtime"
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/rebalance"
	"github.com/bingo-rw/bingo/internal/walk"
)

// ConcurrentConfig tunes the concurrency wrapper. The zero value selects
// all defaults.
type ConcurrentConfig struct {
	// Stripes is the lock-stripe count (rounded up to a power of two;
	// default GOMAXPROCS×8). More stripes mean less writer/walker
	// contention at a few cache lines each.
	Stripes int
	// MaxStepRetries bounds epoch-validation re-draws per walk step
	// (default 4).
	MaxStepRetries int
	// Workers bounds ApplyBatch fan-out (default: the engine's worker
	// setting).
	Workers int
}

func (c ConcurrentConfig) internal() concurrent.Config {
	return concurrent.Config{Stripes: c.Stripes, MaxStepRetries: c.MaxStepRetries, Workers: c.Workers}
}

// ConcurrentEngine is a fully concurrent Bingo engine: any number of
// goroutines may sample, walk, insert, delete, and batch-apply updates
// simultaneously. Sampling stays O(1) and updates O(K); operations on
// vertices in distinct lock stripes do not contend.
type ConcurrentEngine struct {
	ce        *concurrent.Engine
	floatMode bool
}

// Concurrent upgrades the engine for concurrent walk-while-ingest use. The
// returned wrapper takes ownership of the underlying engine: after this
// call the original Engine must no longer be used directly.
func (e *Engine) Concurrent() *ConcurrentEngine {
	return e.ConcurrentWith(ConcurrentConfig{})
}

// ConcurrentWith is Concurrent with explicit tuning.
func (e *Engine) ConcurrentWith(cfg ConcurrentConfig) *ConcurrentEngine {
	ce := concurrent.Wrap(e.s, cfg.internal())
	return &ConcurrentEngine{ce: ce, floatMode: e.s.Config().FloatBias}
}

// NumVertices returns the vertex-ID space size.
func (c *ConcurrentEngine) NumVertices() int { return c.ce.NumVertices() }

// NumEdges returns the live edge count.
func (c *ConcurrentEngine) NumEdges() int64 { return c.ce.NumEdges() }

// Degree returns u's out-degree.
func (c *ConcurrentEngine) Degree(u VertexID) int { return c.ce.Degree(u) }

// HasEdge reports whether at least one edge u→dst is live.
func (c *ConcurrentEngine) HasEdge(u, dst VertexID) bool { return c.ce.HasEdge(u, dst) }

// Memory returns the engine's memory footprint in bytes (quiesces briefly).
func (c *ConcurrentEngine) Memory() int64 { return c.ce.Footprint() }

// Sample draws a neighbor of u with probability weight/Σweights. Safe for
// arbitrary concurrent use; each goroutine needs its own Rand.
func (c *ConcurrentEngine) Sample(u VertexID, r *Rand) (VertexID, bool) {
	return c.ce.Sample(u, r)
}

// SampleSeq draws up to len(dst) independent samples of u's neighbors under
// one lock acquisition, all against the same graph version. It returns the
// number drawn.
func (c *ConcurrentEngine) SampleSeq(u VertexID, dst []VertexID, r *Rand) int {
	return c.ce.SampleSeq(u, dst, r)
}

// Walk performs a first-order walk of up to length steps from start and
// returns the visited path (start included). Each step is drawn with the
// epoch validate-and-retry protocol, so hops reflect stable graph versions
// even while updates interleave.
func (c *ConcurrentEngine) Walk(start VertexID, length int, r *Rand) []VertexID {
	path, _ := c.ce.WalkFrom(start, length, r, nil)
	return path
}

// Insert adds edge u→dst with the given weight (streaming path, O(K)).
func (c *ConcurrentEngine) Insert(u, dst VertexID, weight float64) error {
	if c.floatMode {
		return c.ce.InsertFloat(u, dst, weight)
	}
	ib, err := intWeight(weight)
	if err != nil {
		return err
	}
	return c.ce.Insert(u, dst, ib)
}

// Delete removes one live instance of edge u→dst (streaming path, O(K)).
func (c *ConcurrentEngine) Delete(u, dst VertexID) error { return c.ce.Delete(u, dst) }

// UpdateWeight rewrites the weight of one live instance of edge u→dst.
func (c *ConcurrentEngine) UpdateWeight(u, dst VertexID, weight float64) error {
	if c.floatMode {
		return c.ce.UpdateBiasFloat(u, dst, weight)
	}
	ib, err := intWeight(weight)
	if err != nil {
		return err
	}
	return c.ce.UpdateBias(u, dst, ib)
}

// ApplyBatch ingests updates through the batched path while walkers keep
// running: only the lock stripes of touched vertices block, and each only
// for its own per-vertex application.
func (c *ConcurrentEngine) ApplyBatch(ups []Update) (BatchResult, error) {
	internal, err := toInternalUpdates(c.floatMode, ups)
	if err != nil {
		return BatchResult{}, err
	}
	res, err := c.ce.ApplyBatch(internal)
	return BatchResult{Inserted: res.Inserted, Deleted: res.Deleted, NotFound: res.NotFound}, err
}

// DeepWalk runs biased DeepWalk over the live graph; updates may proceed
// concurrently.
func (c *ConcurrentEngine) DeepWalk(o WalkOptions) WalkResult {
	return fromWalk(walk.DeepWalk(c.ce, o.internal()))
}

// Node2Vec runs second-order node2vec walks over the live graph.
func (c *ConcurrentEngine) Node2Vec(o WalkOptions) WalkResult {
	return fromWalk(walk.Node2Vec(c.ce, o.internal()))
}

// PPR runs personalized-PageRank walks over the live graph.
func (c *ConcurrentEngine) PPR(o WalkOptions) WalkResult {
	return fromWalk(walk.PPR(c.ce, o.internal()))
}

// SimpleSampling runs the independent one-hop sampling kernel over the
// live graph.
func (c *ConcurrentEngine) SimpleSampling(o WalkOptions) WalkResult {
	return fromWalk(walk.SimpleSampling(c.ce, o.internal()))
}

// CheckInvariants quiesces the engine and verifies structural invariants
// (tests and debugging; O(V + E·K)).
func (c *ConcurrentEngine) CheckInvariants() error {
	var err error
	c.ce.Quiesce(func(s *core.Sampler) { err = s.CheckInvariants() })
	return err
}

// HubCacheOptions tune the hub-vertex view caches of the serving
// runtimes. The zero value enables caching with defaults; set Off to get
// the pre-cache behavior (every hop through the engine lock, every
// boundary crossing a walker hand-off).
type HubCacheOptions struct {
	// Off disables all cache layers.
	Off bool
	// Size is each walker's local view-LRU capacity (0 = default 256).
	Size int
	// MinDegree is the hub admission threshold: only vertices of at
	// least this degree are cached or served as views (0 = default 8).
	MinDegree int
	// RemoteSize is the per-shard remote-view cache capacity in the
	// sharded runtimes (0 = default 512).
	RemoteSize int
	// RequestAfter is how many walker hand-offs a shard observes toward
	// one non-owned vertex before fetching its view (0 = default 2).
	RequestAfter int
}

func (o HubCacheOptions) spec() fabric.CacheSpec {
	return fabric.CacheSpec{
		Off:          o.Off,
		Size:         o.Size,
		MinDegree:    o.MinDegree,
		RemoteSize:   o.RemoteSize,
		RequestAfter: o.RequestAfter,
	}
}

// RebalanceOptions tune the heat-aware shard rebalancer of the sharded
// serving runtimes. Off by default: set On to let the coordinator watch
// per-shard heat (walk steps per ownership block, reported on ingest
// barriers) and migrate hot blocks off overloaded shards live — walkers
// are re-routed across the ownership flip, never lost, and the feed's
// per-source ordering is preserved (see DESIGN.md, "Heat-aware
// rebalancing"). Zero values select defaults.
type RebalanceOptions struct {
	// On enables the rebalancer.
	On bool
	// Interval is the heat-check period (default 500ms).
	Interval time.Duration
	// Imbalance triggers rebalancing when the hottest shard's share of
	// walk steps exceeds this multiple of the fair share 1/shards
	// (default 1.3).
	Imbalance float64
	// MaxMovesPerCycle bounds block migrations per heat check (default 4).
	MaxMovesPerCycle int
	// MinCycleSteps is the minimum per-cycle step count worth acting on
	// (default 2048).
	MinCycleSteps int64
	// Cooldown is how many heat checks a moved block is pinned before it
	// may move again (default 2).
	Cooldown int
}

func (o RebalanceOptions) opts() rebalance.Options {
	return rebalance.Options{
		On:               o.On,
		Interval:         o.Interval,
		Imbalance:        o.Imbalance,
		MaxMovesPerCycle: o.MaxMovesPerCycle,
		MinCycleSteps:    o.MinCycleSteps,
		Cooldown:         o.Cooldown,
	}
}

// RebalanceStats report the rebalancer's cumulative activity.
type RebalanceStats struct {
	// Migrations counts completed block migrations; MovedEdges the edges
	// they shipped between shards.
	Migrations, MovedEdges int64
	// PlanEpoch is the ownership plan's overlay version (0 = the
	// block-cyclic base plan, never rebalanced).
	PlanEpoch uint64
}

// LiveOptions configure Serve.
type LiveOptions struct {
	// Walkers is the walker-pool size (default GOMAXPROCS).
	Walkers int
	// QueueDepth buffers queries and feed batches (default 256); a full
	// feed queue makes Feed block (backpressure).
	QueueDepth int
	// WalkLength is the default for Query length <= 0 (default 80).
	WalkLength int
	// Seed makes walker RNG streams reproducible.
	Seed uint64
	// HubCache tunes the pool walkers' hub-view caches.
	HubCache HubCacheOptions
	// Kernel selects the stepping-kernel mode for bulk walks run through
	// the service: "sparse", "dense", or "auto" (default; unknown values
	// fall back to auto).
	Kernel string
}

// LiveStats snapshots a LiveWalker's counters.
type LiveStats struct {
	// Queries and Steps count served walk queries and their total steps.
	Queries, Steps int64
	// Batches and Updates count ingested feed batches and their events.
	Batches, Updates int64
	// Dropped counts feed batches whose application failed; the first
	// error is reported by Close, and ingestion continues past it.
	Dropped int64
	// CacheHits and CacheStale report the walkers' hub-view caches:
	// lock-free hops served, and views dropped on epoch mismatch.
	CacheHits, CacheStale int64
}

// LiveWalker serves walk queries from a walker pool while a streaming
// update feed mutates the graph — the paper's dynamic-graph serving
// scenario as an API.
type LiveWalker struct {
	svc       *walk.LiveService
	floatMode bool
}

// Serve starts a walker pool plus ingest loop over the engine.
func (c *ConcurrentEngine) Serve(o LiveOptions) *LiveWalker {
	kernel, _ := walk.ParseKernelMode(o.Kernel)
	svc := walk.NewLiveService(c.ce, walk.LiveConfig{
		Walkers:    o.Walkers,
		QueueDepth: o.QueueDepth,
		WalkLength: o.WalkLength,
		Seed:       o.Seed,
		Cache:      o.HubCache.spec(),
		Kernel:     kernel,
	})
	return &LiveWalker{svc: svc, floatMode: c.floatMode}
}

// Query walks from start for up to length steps (<= 0 selects the default)
// and returns the visited path, start included.
func (lw *LiveWalker) Query(start VertexID, length int) ([]VertexID, error) {
	return lw.svc.Query(start, length)
}

// Feed enqueues updates for ingestion. It blocks when the feed queue is
// full and fails with an error after Close.
func (lw *LiveWalker) Feed(ups []Update) error {
	internal, err := toInternalUpdates(lw.floatMode, ups)
	if err != nil {
		return err
	}
	return lw.svc.Feed(internal)
}

// Stats snapshots the service counters.
func (lw *LiveWalker) Stats() LiveStats {
	st := lw.svc.Stats()
	return LiveStats{
		Queries: st.Queries, Steps: st.Steps,
		Batches: st.Batches, Updates: st.Updates, Dropped: st.Dropped,
		CacheHits: st.CacheHits, CacheStale: st.CacheStale,
	}
}

// Close drains both queues, stops the pool, and returns the first ingest
// error. Idempotent.
func (lw *LiveWalker) Close() error { return lw.svc.Close() }

// ---------------------------------------------------------------------------
// Sharded serving

// ShardedOptions configure ServeSharded.
type ShardedOptions struct {
	// WalkersPerShard sizes each shard's walker crew (default
	// max(1, GOMAXPROCS / shards)).
	WalkersPerShard int
	// QueueDepth buffers the feed and per-shard ingest queues (default
	// 256); a full feed queue makes Feed block (backpressure).
	QueueDepth int
	// WalkLength is the default for Query length <= 0 (default 80).
	WalkLength int
	// Seed makes query RNG streams reproducible.
	Seed uint64
	// Concurrency tunes each shard's concurrency wrapper (zero value =
	// defaults).
	Concurrency ConcurrentConfig
	// HubCache tunes the shards' hub-view caches.
	HubCache HubCacheOptions
	// Rebalance tunes the heat-aware shard rebalancer (off by default).
	Rebalance RebalanceOptions
	// Replicas is the block ownership replication factor (default 1 = no
	// replication). With Replicas = R, every ownership block's rows live
	// on R consecutive shards, fed from the same routed update stream, and
	// the runtime survives shard failures by promoting a replica (a
	// dead-mask flip — the replicas are already identical). Mutually
	// exclusive with Rebalance; at most 64 shards.
	Replicas int
	// CreditWindow bounds per-shard in-flight (routed but unapplied)
	// update events; a full window blocks Feed (0 = default 16384,
	// negative disables).
	CreditWindow int
	// Kernel selects the shard crews' stepping-kernel mode: "sparse",
	// "dense", or "auto" (default).
	Kernel string
}

// HubCacheStats report the hub-view cache layers of a sharded runtime.
type HubCacheStats struct {
	// LocalHits counts hops served lock-free from a crew walker's own
	// view cache; LocalStale counts views dropped on epoch mismatch.
	LocalHits, LocalStale int64
	// RemoteHits counts hops at non-owned vertices served from a peer's
	// shipped view instead of a walker hand-off; RemoteStale counts
	// remote views dropped by watermark invalidation.
	RemoteHits, RemoteStale int64
	// ViewRequests and ViewsServed count the fabric's view fetch
	// traffic (issued and answered, respectively).
	ViewRequests, ViewsServed int64
}

// ShardedLiveStats snapshots a ShardedLiveWalker's counters. Transfers
// and Local split walk steps into cross-shard hand-offs and steps that
// stayed on the owning shard; Cache.RemoteHits are boundary crossings
// the hub cache absorbed.
type ShardedLiveStats struct {
	Queries, Steps            int64
	Batches, Updates, Dropped int64
	Transfers, Local          int64
	Cache                     HubCacheStats
	// ShardSteps splits Steps by serving shard — the load-share view the
	// rebalancer acts on (live for in-process shards, as of the last
	// Sync for remote daemons).
	ShardSteps []int64
	// Corpus reports standing-walk-corpus maintenance riding on this
	// service when one is attached (see CorpusWalker.ServiceStats; only
	// the maintenance tallies — Resamples through Fallbacks — are
	// populated here, serving counters stay on CorpusWalker.Stats).
	Corpus CorpusStats
	// Rebalance reports the heat-aware rebalancer's activity.
	Rebalance RebalanceStats
	// Failover reports replica-failover activity (replicated sessions):
	// shard-link deaths, walkers re-routed or relaunched across them, and
	// completed rejoin cycles with their copied snapshot blocks.
	Failover FailoverStats
	// Backpressure reports the ingest credit window's activity.
	Backpressure BackpressureStats
}

// FailoverStats report a replicated session's failover activity.
type FailoverStats struct {
	// Deaths counts shard-link death events; Reroutes walkers re-routed
	// to a live replica mid-walk; Relaunches walker clones relaunched
	// because their originals may have died with a daemon.
	Deaths, Reroutes, Relaunches int64
	// Rejoins counts completed rejoin/failback cycles; CopiedBlocks the
	// snapshot blocks shipped while re-priming rejoined shards.
	Rejoins, CopiedBlocks int64
}

// BackpressureStats report the ingest credit window's observed pressure.
type BackpressureStats struct {
	// Window is the configured per-shard credit window (0 = disabled).
	Window int64
	// MaxOutstanding is the largest admitted per-shard in-flight update
	// event count; Stalled is the total time the feed router spent
	// blocked waiting for shard credits.
	MaxOutstanding int64
	Stalled        time.Duration
}

// TransferRatio is walker hand-offs per sampled hop — the share of walk
// progress that cost a cross-shard transfer (hops the hub cache served
// from remote views cross shard ownership without a hand-off).
func (s ShardedLiveStats) TransferRatio() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.Transfers) / float64(s.Steps)
}

func fromCacheTallies(t fabric.CacheTallies) HubCacheStats {
	return HubCacheStats{
		LocalHits: t.LocalHits, LocalStale: t.LocalStale,
		RemoteHits: t.RemoteHits, RemoteStale: t.RemoteStale,
		ViewRequests: t.ViewRequests, ViewsServed: t.ViewsServed,
	}
}

// ShardedLiveWalker serves walk queries through the sharded live runtime:
// N per-shard concurrent engines, an ingest router splitting feed batches
// by owner shard, and cross-shard walker transfer — the supplement §9.1
// partitioned topology as a live Query/Feed service. The API mirrors
// LiveWalker, plus Sync (an ingest barrier) and transfer telemetry.
// ServeSharded runs the shards in this process; ServeRemote runs the same
// coordinator against shard daemons over the TCP fabric, where the
// per-shard counters (Updates, Dropped, ShardSteps, Cache) are exact as
// of the last Sync, since the daemons report them through barrier
// acknowledgements.
type ShardedLiveWalker struct {
	svc       *walk.ShardedLiveService
	floatMode bool
}

// ServeSharded partitions the engine's current graph into shards vertex
// ranges (block-cyclic, so ownership stays total while the live feed grows
// the vertex space), builds one concurrent engine per shard, and starts
// the sharded serving runtime. The engine's graph is snapshotted at this
// call; the original Engine remains usable but further mutations to it are
// not reflected in the service — feed them through the service instead.
func (e *Engine) ServeSharded(shards int, o ShardedOptions) (*ShardedLiveWalker, error) {
	if shards < 1 {
		shards = 1
	}
	g := e.s.Snapshot()
	plan := walk.NewShardPlan(g.NumVertices(), shards)
	if o.Replicas > 1 {
		plan.Replicas = o.Replicas
	}
	engines, err := e.shardEngines(g, plan, o.Concurrency)
	if err != nil {
		return nil, err
	}
	kernel, err := walk.ParseKernelMode(o.Kernel)
	if err != nil {
		return nil, err
	}
	svc, err := walk.NewShardedLiveService(engines, plan, walk.ShardedLiveConfig{
		WalkersPerShard: o.WalkersPerShard,
		QueueDepth:      o.QueueDepth,
		WalkLength:      o.WalkLength,
		Seed:            o.Seed,
		Cache:           o.HubCache.spec(),
		Kernel:          kernel,
		Rebalance:       o.Rebalance.opts(),
		CreditWindow:    o.CreditWindow,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedLiveWalker{svc: svc, floatMode: e.s.Config().FloatBias}, nil
}

// shardEngines builds one concurrent engine per plan shard, each holding
// exactly the rows of g the plan assigns it.
func (e *Engine) shardEngines(g *graph.CSR, plan walk.ShardPlan, cc ConcurrentConfig) ([]walk.LiveEngine, error) {
	return walk.BootstrapShards(g, plan, func() (walk.LiveEngine, error) {
		s, err := core.New(g.NumVertices(), e.s.Config())
		if err != nil {
			return nil, err
		}
		return concurrent.Wrap(s, cc.internal()), nil
	})
}

// Shards returns the partition count.
func (sw *ShardedLiveWalker) Shards() int { return sw.svc.Shards() }

// NumVertices returns the widest vertex space across the shards (for
// daemon shards, exact as of the last Sync).
func (sw *ShardedLiveWalker) NumVertices() int { return sw.svc.NumVertices() }

// Query walks from start for up to length steps (<= 0 selects the
// default) across the sharded runtime and returns the visited path, start
// included.
func (sw *ShardedLiveWalker) Query(start VertexID, length int) ([]VertexID, error) {
	return sw.svc.Query(start, length)
}

// Feed enqueues updates; the router splits them by owner shard while
// preserving per-source order. It blocks when the feed queue is full and
// fails with an error after Close.
func (sw *ShardedLiveWalker) Feed(ups []Update) error {
	internal, err := toInternalUpdates(sw.floatMode, ups)
	if err != nil {
		return err
	}
	return sw.svc.Feed(internal)
}

// Sync blocks until every batch accepted before the call is applied on
// its shards, then reports the first ingest error — the barrier between
// "fed" and "visible to queries".
func (sw *ShardedLiveWalker) Sync() error { return sw.svc.Sync() }

// DeepWalk runs a bulk first-order walk through the sharded runtime while
// the feed keeps ingesting, returning the run's transfer stats alongside
// the result.
func (sw *ShardedLiveWalker) DeepWalk(o WalkOptions) (WalkResult, ShardedLiveStats, error) {
	res, ts, err := sw.svc.DeepWalk(o.internal())
	st := ShardedLiveStats{Steps: res.Steps, Transfers: ts.Transfers, Local: ts.Local}
	st.Cache.RemoteHits = ts.Remote
	return fromWalk(res), st, err
}

// Stats snapshots the service counters.
func (sw *ShardedLiveWalker) Stats() ShardedLiveStats {
	return fromShardedStats(sw.svc.Stats())
}

func fromShardedStats(st walk.ShardedLiveStats) ShardedLiveStats {
	return ShardedLiveStats{
		Queries: st.Queries, Steps: st.Steps,
		Batches: st.Batches, Updates: st.Updates, Dropped: st.Dropped,
		Transfers: st.Transfers, Local: st.Local,
		Cache:      fromCacheTallies(st.Cache),
		ShardSteps: st.ShardSteps,
		Corpus:     fromCorpusTallies(st.Corpus),
		Rebalance: RebalanceStats{
			Migrations: st.Rebalance.Migrations,
			MovedEdges: st.Rebalance.MovedEdges,
			PlanEpoch:  st.Rebalance.PlanEpoch,
		},
		Failover: FailoverStats{
			Deaths:       st.Failover.Deaths,
			Reroutes:     st.Failover.Reroutes,
			Relaunches:   st.Failover.Relaunches,
			Rejoins:      st.Failover.Rejoins,
			CopiedBlocks: st.Failover.CopiedBlocks,
		},
		Backpressure: BackpressureStats{
			Window:         st.Backpressure.Window,
			MaxOutstanding: st.Backpressure.MaxOutstanding,
			Stalled:        st.Backpressure.Stalled,
		},
	}
}

// Close drains the feed, waits for in-flight walkers, stops the shard
// crews, and returns the first ingest error. Idempotent.
func (sw *ShardedLiveWalker) Close() error { return sw.svc.Close() }

// ---------------------------------------------------------------------------
// Multi-process serving (shard daemons over the TCP fabric)

// RemoteOptions configure ServeRemote.
type RemoteOptions struct {
	// QueueDepth buffers the coordinator's feed queue (default 256); a
	// full queue makes Feed block (backpressure).
	QueueDepth int
	// WalkLength is the default for Query length <= 0 (default 80).
	WalkLength int
	// Seed makes query RNG streams reproducible.
	Seed uint64
	// HubCache tunes the daemons' hub-view caches; the session Hello
	// carries it, so the coordinator decides the cache policy for the
	// whole session.
	HubCache HubCacheOptions
	// Rebalance tunes the heat-aware shard rebalancer (off by default).
	// The coordinator drives migrations; the daemons execute them.
	Rebalance RebalanceOptions
	// Replication is the block ownership replication factor (default 1 =
	// no replication). With factor R every ownership block's rows live on
	// R consecutive daemons fed from the same routed stream, the
	// coordinator survives daemon deaths by promoting replicas (a
	// dead-mask flip), and dead daemons that come back are re-primed from
	// live replica snapshots. Mutually exclusive with Rebalance; at most
	// 64 shards.
	Replication int
	// CreditWindow bounds per-daemon in-flight (routed but unapplied)
	// update events; a full window blocks Feed instead of growing daemon
	// memory (0 = default 16384, negative disables).
	CreditWindow int
	// Kernel selects the daemons' stepping-kernel mode: "sparse",
	// "dense", or "auto" (default). The session Hello carries it, so the
	// coordinator decides the kernel policy for the whole session.
	Kernel string
}

// ServeRemote partitions the engine's current graph across one shard
// daemon per address (each a `bingowalk -shard-serve` process, already
// listening) and starts a serving session: every daemon receives the
// partition geometry and engine spec, is fed exactly the rows it owns,
// and the call returns once a sync barrier confirms the bootstrap landed.
// The engine's graph is snapshotted at this call; feed later mutations
// through the returned walker.
func (e *Engine) ServeRemote(addrs []string, o RemoteOptions) (*ShardedLiveWalker, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("bingo: ServeRemote needs at least one shard address")
	}
	g := e.s.Snapshot()
	plan := walk.NewShardPlan(g.NumVertices(), len(addrs))
	if o.Replication > 1 {
		plan.Replicas = o.Replication
	}
	if _, err := walk.ParseKernelMode(o.Kernel); err != nil {
		return nil, err
	}
	floatMode := e.s.Config().FloatBias
	port, err := tcpgob.DialWith(addrs, fabric.Hello{
		RangeSize:   plan.RangeSize,
		NumVertices: g.NumVertices(),
		FloatBias:   floatMode,
		Cache:       o.HubCache.spec(),
		Replicas:    plan.Replicas,
		Kernel:      o.Kernel,
	}, tcpgob.DialConfig{Resilient: plan.Replicas > 1})
	if err != nil {
		return nil, err
	}
	svc, err := walk.NewShardedLiveServiceOver(port, plan, g.NumVertices(), walk.ShardedLiveConfig{
		QueueDepth:   o.QueueDepth,
		WalkLength:   o.WalkLength,
		Seed:         o.Seed,
		Rebalance:    o.Rebalance.opts(),
		CreditWindow: o.CreditWindow,
	})
	if err != nil {
		port.Close()
		return nil, err
	}
	if err := svc.Bootstrap(g); err != nil {
		svc.Close()
		return nil, fmt.Errorf("bingo: bootstrapping shards: %w", err)
	}
	return &ShardedLiveWalker{svc: svc, floatMode: floatMode}, nil
}

// ---------------------------------------------------------------------------
// Read-coordinators (query-tier scale-out)

// ReaderOptions configure AttachReader.
type ReaderOptions struct {
	// WalkLength is the default for Query length <= 0 (default 80).
	WalkLength int
	// Seed makes the reader's query RNG streams reproducible.
	Seed uint64
	// HubCache tunes the reader's own hub-view cache — the layer that
	// serves hops without any shard round trip (zero value = enabled with
	// defaults; Off disables reader-local serving).
	HubCache HubCacheOptions
}

func (o ReaderOptions) internal() walk.ReaderConfig {
	return walk.ReaderConfig{WalkLength: o.WalkLength, Seed: o.Seed, Cache: o.HubCache.spec()}
}

// ReaderWalkerStats snapshot a read-coordinator's activity.
type ReaderWalkerStats struct {
	// Queries and Steps count completed Query walks and their hops;
	// Transfers the cross-shard hand-offs inside shard-served segments.
	Queries, Steps, Transfers int64
	// LocalHits counts hops served from the reader's own hub-view cache
	// (no shard round trip); Launches walker launches into the shard
	// set; ViewRequests hub views requested from owners; CachedViews the
	// current cache population.
	LocalHits, Launches, ViewRequests int64
	CachedViews                       int
	// PlanEpoch is the reader's view of the live ownership-plan version,
	// kept current by the write-coordinator's broadcast stream;
	// PlanFlips counts epoch/liveness changes observed (each drops the
	// view cache); Applied is the newest applied-update stamp received.
	PlanEpoch uint64
	PlanFlips int64
	Applied   int64
}

// ReaderWalker is a read-coordinator: a Query/DeepWalk front end
// attached to a shard set another process (or service) writes to.
// Exactly one write session owns ingest, credit flow, and rebalancing;
// any number of ReaderWalkers serve queries beside it, each keeping its
// routing and hub-view cache valid through the write-coordinator's
// broadcast stream. Serving is bounded-staleness: AppliedStamp reports
// how much ingest this reader's answers are guaranteed to reflect, and
// WaitApplied(stamp) blocks until the writer's stamp (its AppliedStamp
// after a Sync) is covered.
type ReaderWalker struct {
	svc *walk.ReaderService
}

// AttachReader attaches a read-coordinator to a running shard-daemon set
// over the TCP fabric. addrs must list the same daemons (in the same
// order) as the write session's ServeRemote; the attach fails if no
// write session is live. The reader serves queries without mediating
// ingest and detaches independently with Close.
func AttachReader(addrs []string, o ReaderOptions) (*ReaderWalker, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("bingo: AttachReader needs at least one shard address")
	}
	port, err := tcpgob.DialReader(addrs, fabric.Hello{})
	if err != nil {
		return nil, err
	}
	svc, err := walk.NewReaderService(port, o.internal())
	if err != nil {
		return nil, err
	}
	return &ReaderWalker{svc: svc}, nil
}

// AttachReader attaches an in-process read-coordinator to this walker's
// shard set: the returned ReaderWalker serves Query/DeepWalk against the
// same shard engines while this walker keeps exclusive ownership of
// ingest and rebalancing. A walker from ServeRemote has no in-process
// shards to attach to and returns an error; attach to its daemons with
// the package-level AttachReader.
func (sw *ShardedLiveWalker) AttachReader(o ReaderOptions) (*ReaderWalker, error) {
	svc, err := sw.svc.AttachReader(o.internal())
	if err != nil {
		return nil, err
	}
	return &ReaderWalker{svc: svc}, nil
}

// Query walks from start for up to length steps (<= 0 selects the
// default) and returns the visited path, start included. Hops are served
// from the reader's hub-view cache when a valid cached view covers the
// walker's position; the remainder runs on the shard set.
func (rd *ReaderWalker) Query(start VertexID, length int) ([]VertexID, error) {
	return rd.svc.Query(start, length)
}

// DeepWalk runs a bulk first-order walk through the shard set from this
// reader while the write session keeps ingesting.
func (rd *ReaderWalker) DeepWalk(o WalkOptions) (WalkResult, error) {
	res, _, err := rd.svc.DeepWalk(o.internal())
	return fromWalk(res), err
}

// NumVertices returns the reader's view of the vertex-space size (kept
// current by the broadcast stream).
func (rd *ReaderWalker) NumVertices() int { return rd.svc.NumVertices() }

// AppliedStamp returns the newest applied-update stamp the broadcast
// stream has delivered — how much of the write session's ingest this
// reader's serving is guaranteed to reflect.
func (rd *ReaderWalker) AppliedStamp() int64 { return rd.svc.AppliedStamp() }

// WaitApplied blocks until the reader's applied stamp reaches stamp
// (typically the write side's AppliedStamp() after a Sync), then
// returns nil; it fails if the write session ends first.
func (rd *ReaderWalker) WaitApplied(stamp int64) error { return rd.svc.WaitApplied(stamp) }

// Stats snapshots the reader's counters.
func (rd *ReaderWalker) Stats() ReaderWalkerStats {
	st := rd.svc.Stats()
	return ReaderWalkerStats{
		Queries: st.Queries, Steps: st.Steps, Transfers: st.Transfers,
		LocalHits: st.LocalHits, Launches: st.Launches, ViewRequests: st.ViewRequests,
		CachedViews: st.CachedViews,
		PlanEpoch:   st.PlanEpoch, PlanFlips: st.PlanFlips, Applied: st.Applied,
	}
}

// Close detaches the reader. The write session and every other reader
// are unaffected. Idempotent.
func (rd *ReaderWalker) Close() error { return rd.svc.Close() }

// ShardServeOptions configure ServeShard.
type ShardServeOptions struct {
	// Walkers is the hosted shard's crew size (default GOMAXPROCS — the
	// daemon owns its process).
	Walkers int
	// Concurrency tunes the shard's concurrency wrapper (zero value =
	// defaults).
	Concurrency ConcurrentConfig
	// Sessions is how many coordinator sessions to serve before
	// returning: 0 serves exactly one (the pre-multi-session behavior),
	// negative serves indefinitely — the daemon loops back to accepting
	// a new coordinator Hello after each session tears down, with a
	// fresh engine per session.
	Sessions int
	// OnListen, if non-nil, receives the bound listen address before the
	// call blocks waiting for a coordinator (useful with ":0" ports).
	OnListen func(addr string)
	// OnSession, if non-nil, receives each completed session's index
	// (from 0), tallies, and error.
	OnSession func(session int, st ShardServeStats, err error)
}

// ShardServeStats summarizes a completed shard-daemon session.
type ShardServeStats struct {
	Steps, Transfers, Local int64
	Updates, Dropped        int64
	Vertices                int
	Edges                   int64
	Cache                   HubCacheStats
}

// ServeShard hosts one shard of a multi-process serving session: it
// listens on addr, waits for a coordinator (an Engine.ServeRemote call
// elsewhere) to open a session, builds a concurrent engine from the
// announced spec, and serves walker transfers, hub-view traffic, and
// routed ingest until the coordinator closes the session. With
// Sessions != 0 the daemon then loops back to accepting the next
// coordinator Hello instead of exiting (each session gets a fresh
// engine; a stray peer stream from a torn-down session is refused by its
// session nonce). shard/shards are this daemon's claimed position,
// validated against every coordinator's Hello (pass shards <= 0 to
// accept any count). It returns the final session's stats. This is the
// body of `bingowalk -shard-serve`.
func ServeShard(addr string, shard, shards int, o ShardServeOptions) (ShardServeStats, error) {
	l, err := tcpgob.Listen(addr, shard, shards)
	if err != nil {
		return ShardServeStats{}, err
	}
	defer l.Close()
	if o.OnListen != nil {
		o.OnListen(l.Addr().String())
	}
	sessions := o.Sessions
	if sessions == 0 {
		sessions = 1
	}
	var last ShardServeStats
	var lastErr error
	for n := 0; sessions < 0 || n < sessions; n++ {
		sc, hello, err := l.Accept()
		if err != nil {
			return last, err
		}
		last, lastErr = serveOneShardSession(sc, hello, shard, o)
		if o.OnSession != nil {
			o.OnSession(n, last, lastErr)
		}
	}
	return last, lastErr
}

// serveOneShardSession builds a session-scoped engine from the Hello and
// runs the shard node until the coordinator ends the session.
func serveOneShardSession(sc *tcpgob.ShardConn, hello fabric.Hello, shard int, o ShardServeOptions) (ShardServeStats, error) {
	cfg := core.DefaultConfig()
	cfg.FloatBias = hello.FloatBias
	s, err := core.New(hello.NumVertices, cfg)
	if err != nil {
		sc.Close()
		return ShardServeStats{}, err
	}
	eng := concurrent.Wrap(s, o.Concurrency.internal())
	walkers := o.Walkers
	if walkers <= 0 {
		walkers = runtime.GOMAXPROCS(0)
	}
	plan := walk.ShardPlan{
		Shards: hello.Shards, RangeSize: hello.RangeSize,
		Epoch: hello.PlanEpoch, Overlay: hello.Overlay,
		Replicas: hello.Replicas, DeadMask: hello.DeadMask,
	}
	kernel, kerr := walk.ParseKernelMode(hello.Kernel)
	if kerr != nil {
		// An unknown mode from a newer coordinator falls back to auto
		// rather than tearing down the session.
		kernel = walk.KernelAuto
	}
	st, err := walk.RunShardNode(eng, plan, shard, sc, walkers, hello.Cache, kernel)
	return ShardServeStats{
		Steps: st.Steps, Transfers: st.Transfers, Local: st.Local,
		Updates: st.Updates, Dropped: st.Dropped,
		Vertices: st.Vertices, Edges: st.Edges,
		Cache: fromCacheTallies(st.Cache),
	}, err
}
