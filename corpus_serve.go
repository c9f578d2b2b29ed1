package bingo

// This file is the public face of the standing walk corpus
// (internal/walk.CorpusService): instead of re-walking per query, the
// engine maintains K walks × L steps per vertex continuously valid under
// the update feed — edge updates dirty only the walk suffixes that
// passed through the touched vertex, and a refresh loop resamples
// exactly those — and serves queries as corpus slices under a
// bounded-staleness guarantee. See DESIGN.md, "Standing walk corpus".

import (
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/walk"
)

// CorpusOptions configure ServeCorpus. The zero value selects all
// defaults.
type CorpusOptions struct {
	// Walks is K, the standing walks maintained per vertex (default 2).
	Walks int
	// WalkLength is L, each standing walk's step budget (default 80; at
	// most 65535 — positions must fit the walk index's packed postings).
	WalkLength int
	// Seed makes the corpus and regrow RNG streams reproducible.
	Seed uint64
	// StalenessBound is the maximum update events a corpus-served query
	// may trail the feed by before falling back to a fresh walk (0 =
	// default 4096; negative disables the fallback).
	StalenessBound int
	// RefreshInterval is the coalescing window between the first touch
	// and the refresh that repairs it — longer windows batch more churn
	// into one resample cycle (default 2ms).
	RefreshInterval time.Duration
	// RefreshWorkers bounds the sharded refresh's concurrent regrow
	// queries (default GOMAXPROCS).
	RefreshWorkers int
	// CreditWindow bounds fed-but-unrefreshed touch events before Feed
	// blocks — the corpus-side credited backpressure (0 = default 16384,
	// negative disables).
	CreditWindow int
	// WalkersPerShard sizes the sharded backend's walker crews (shards >
	// 1 only; default max(1, GOMAXPROCS / shards)).
	WalkersPerShard int
	// HubCache tunes the hub-view caches of the backend (sharded) or the
	// regrow kernel (unsharded).
	HubCache HubCacheOptions
	// Kernel selects the stepping-kernel mode: "sparse", "dense", or ""
	// (the corpus default — dense; a regrow batch is a bulk frontier).
	Kernel string
	// Concurrency tunes the per-shard concurrency wrappers (zero value =
	// defaults).
	Concurrency ConcurrentConfig
}

// CorpusStats snapshots a CorpusWalker's counters.
type CorpusStats struct {
	// Queries counts Query calls; CorpusServed those answered from the
	// standing corpus; StaleServed the corpus-served subset lagging the
	// feed within the bound; Fallbacks those served as fresh walks (bound
	// blown, vertex outside the maintained space, or length beyond L).
	Queries, CorpusServed, StaleServed, Fallbacks int64
	// Refreshes counts refresh cycles; Resamples walks truncated and
	// regrown; ResampledSteps the suffix hops sampled doing it;
	// FullWalkEquivalentSteps the hops a per-update full recompute of
	// every affected walk would have sampled instead.
	Refreshes, Resamples, ResampledSteps int64
	FullWalkEquivalentSteps              int64
	// RefreshLagMs is the maximum observed touch-to-refresh latency.
	RefreshLagMs int64
	// FedEvents is the query watermark (update events accepted);
	// CorpusWatermark the fed events fully incorporated; AppliedStamp
	// the backend shards' summed applied-update ack stamps at the last
	// refresh (sharded only) — the bounded-staleness evidence.
	FedEvents, CorpusWatermark, AppliedStamp int64
	// Walks is the corpus size (K × vertices).
	Walks int64
}

// Amplification is ResampledSteps per full-recompute-equivalent step:
// below 1 the incremental corpus out-amortizes re-walking (the bench
// evidence gates on < 0.2, i.e. ≥ 5× fewer kernel steps).
func (s CorpusStats) Amplification() float64 {
	if s.FullWalkEquivalentSteps == 0 {
		return 0
	}
	return float64(s.ResampledSteps) / float64(s.FullWalkEquivalentSteps)
}

// CorpusWalker serves walk queries from a standing corpus maintained
// under the update feed. Queries inside the staleness bound are corpus
// slices (no walking at all); the refresh loop keeps the corpus valid by
// resampling only dirtied suffixes.
type CorpusWalker struct {
	corpus    *walk.CorpusService
	floatMode bool
}

// ServeCorpus snapshots the engine's graph, builds the serving backend
// (an unsharded concurrent engine, or a shards-way sharded live service
// for shards > 1), grows the initial corpus, and starts the refresh
// loop. The original Engine remains usable but further mutations to it
// are not reflected — feed them through the returned walker.
func (e *Engine) ServeCorpus(shards int, o CorpusOptions) (*CorpusWalker, error) {
	kernel, err := walk.ParseKernelMode(o.Kernel)
	if err != nil {
		return nil, err
	}
	cfg := walk.CorpusConfig{
		WalksPerVertex:  o.Walks,
		WalkLength:      o.WalkLength,
		Seed:            o.Seed,
		StalenessBound:  int64(o.StalenessBound),
		RefreshInterval: o.RefreshInterval,
		RefreshWorkers:  o.RefreshWorkers,
		CreditWindow:    o.CreditWindow,
		Cache:           o.HubCache.spec(),
		Kernel:          kernel,
	}
	floatMode := e.s.Config().FloatBias
	g := e.s.Snapshot()
	if shards <= 1 {
		s, err := core.NewFromCSR(g, e.s.Config())
		if err != nil {
			return nil, err
		}
		ce := concurrent.Wrap(s, o.Concurrency.internal())
		corpus, err := walk.NewCorpusService(ce, cfg)
		if err != nil {
			return nil, err
		}
		return &CorpusWalker{corpus: corpus, floatMode: floatMode}, nil
	}
	plan := walk.NewShardPlan(g.NumVertices(), shards)
	engines, err := e.shardEngines(g, plan, o.Concurrency)
	if err != nil {
		return nil, err
	}
	svc, err := walk.NewShardedLiveService(engines, plan, walk.ShardedLiveConfig{
		WalkersPerShard: o.WalkersPerShard,
		WalkLength:      o.WalkLength,
		Seed:            o.Seed,
		Cache:           o.HubCache.spec(),
		Kernel:          kernel,
	})
	if err != nil {
		return nil, err
	}
	corpus, err := walk.NewShardedCorpusService(svc, g.NumVertices(), cfg)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &CorpusWalker{corpus: corpus, floatMode: floatMode}, nil
}

// Query returns a walk of up to length steps from start (<= 0 selects
// the standing length): a corpus slice inside the staleness bound, a
// fresh walk past it.
func (cw *CorpusWalker) Query(start VertexID, length int) ([]VertexID, error) {
	return cw.corpus.Query(start, length)
}

// Feed applies updates through the backend and enqueues their touches
// for suffix resampling. It blocks while the touch-event credit window
// is full and fails with an error after Close.
func (cw *CorpusWalker) Feed(ups []Update) error {
	internal, err := toInternalUpdates(cw.floatMode, ups)
	if err != nil {
		return err
	}
	return cw.corpus.Feed(internal)
}

// Sync forces a refresh cycle and blocks until the corpus has
// incorporated every Feed accepted before the call.
func (cw *CorpusWalker) Sync() error { return cw.corpus.Sync() }

// Stats snapshots the corpus counters.
func (cw *CorpusWalker) Stats() CorpusStats {
	st := cw.corpus.Stats()
	return CorpusStats{
		Queries:                 st.Queries,
		CorpusServed:            st.CorpusServed,
		StaleServed:             st.StaleServed,
		Fallbacks:               st.Fallbacks,
		Refreshes:               st.Refreshes,
		Resamples:               st.Resamples,
		ResampledSteps:          st.ResampledSteps,
		FullWalkEquivalentSteps: st.FullWalkSteps,
		RefreshLagMs:            st.RefreshLagMs,
		FedEvents:               st.FedEvents,
		CorpusWatermark:         st.CorpusWatermark,
		AppliedStamp:            st.AppliedStamp,
		Walks:                   st.Walks,
	}
}

// ServiceStats snapshots the backend service counters with the corpus
// tallies riding in the Corpus field (backend counters are zero for an
// unsharded corpus).
func (cw *CorpusWalker) ServiceStats() ShardedLiveStats {
	return fromShardedStats(cw.corpus.ShardedStats())
}

func fromCorpusTallies(t fabric.CorpusTallies) CorpusStats {
	return CorpusStats{
		Resamples:               t.Resamples,
		ResampledSteps:          t.ResampledSteps,
		FullWalkEquivalentSteps: t.FullWalkSteps,
		RefreshLagMs:            t.RefreshLagMs,
		StaleServed:             t.StaleServed,
		Fallbacks:               t.Fallbacks,
	}
}

// Close drains the touch queue through a final refresh, stops the
// refresh loop and the backend, and returns the first error observed.
// Idempotent.
func (cw *CorpusWalker) Close() error { return cw.corpus.Close() }
