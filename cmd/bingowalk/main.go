// Command bingowalk runs a random-walk application over an edge-list file
// (or a generated dataset) with the Bingo engine, optionally applying an
// update stream between walk rounds. It prints timing, throughput, and the
// most-visited vertices.
//
// Usage:
//
//	bingowalk -graph edges.txt -app deepwalk -length 80
//	bingowalk -dataset LJ -scale 0.005 -app ppr -updates 10000
//
// Serving modes form a ladder: -live serves one engine, -live -shards N
// partitions it across N in-process shard engines, and the pair
// -shard-serve / -live -connect crosses the process boundary — each
// shard runs as its own daemon and the coordinator drives them over the
// TCP shard fabric:
//
//	bingowalk -shard-serve -addr 127.0.0.1:7431 -shard 0/2
//	bingowalk -shard-serve -addr 127.0.0.1:7432 -shard 1/2
//	bingowalk -live -connect 127.0.0.1:7431,127.0.0.1:7432 -dataset AM
//
// The top rung scales the query tier itself: while a -live -connect
// write session keeps feeding the daemons, any number of -attach
// processes join the same shard set as read-coordinators and serve
// queries beside it (bounded staleness via the write session's broadcast
// stream):
//
//	bingowalk -attach 127.0.0.1:7431,127.0.0.1:7432 -live-queries 100000
//
// Every mode accepts -debug-addr <addr> (alias: -pprof) to expose the
// observability plane: /metrics (Prometheus text), /statusz (JSON
// snapshot of every service's stats), /eventz (the structured event
// journal), and /debug/pprof (e.g. -debug-addr 127.0.0.1:6060). On a
// coordinator the /metrics page is fleet-wide: every shard daemon's
// tallies ride back on barrier acks and re-export under a shard label.
//
// Any -live rung can additionally serve from a standing walk corpus
// (-corpus): K maintained walks per vertex answer queries as slices
// while the feed dirties and incrementally resamples only the affected
// suffixes (-stats prints the maintenance tallies):
//
//	bingowalk -live -shards 4 -corpus -stats -dataset AM
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/obs"
	"github.com/bingo-rw/bingo/internal/rebalance"

	bingo "github.com/bingo-rw/bingo"
	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list file ('src dst [bias]' lines)")
		dataset   = flag.String("dataset", "", "generate a paper dataset instead (AM|GO|CT|LJ|TW)")
		scale     = flag.Float64("scale", 0.01, "dataset scale when -dataset is used")
		app       = flag.String("app", "deepwalk", "application: deepwalk|node2vec|ppr|simple")
		length    = flag.Int("length", 80, "walk length")
		walkersN  = flag.Int("walkers", 0, "number of walkers (0 = one per vertex)")
		updates   = flag.Int("updates", 0, "apply this many mixed updates before walking")
		seed      = flag.Uint64("seed", 1, "seed")
		workers   = flag.Int("workers", 0, "parallel workers (0 = 1)")
		top       = flag.Int("top", 10, "print the top-N visited vertices")
		live      = flag.Bool("live", false, "serve walk queries concurrently with a streaming update feed")
		liveQ     = flag.Int("live-queries", 10000, "walk queries to issue in -live mode")
		liveUps   = flag.Int("live-updates", 100000, "updates streamed during serving in -live mode")
		liveBatch = flag.Int("live-batch", 256, "feed batch size in -live mode")
		shards    = flag.Int("shards", 1, "partition -live serving across N shard engines (walker-transfer topology)")
		connect   = flag.String("connect", "", "comma-separated shard-daemon addresses: -live drives them over the TCP fabric instead of in-process shards")
		shardSrv  = flag.Bool("shard-serve", false, "host one shard daemon: listen on -addr and serve coordinator sessions (see -sessions)")
		addr      = flag.String("addr", "127.0.0.1:0", "listen address for -shard-serve")
		shardSpec = flag.String("shard", "0/1", "this daemon's position K/N for -shard-serve")
		sessions  = flag.Int("sessions", 0, "coordinator sessions a -shard-serve daemon serves before exiting (0 = loop forever)")
		cacheOff  = flag.Bool("hub-cache-off", false, "disable the hub-vertex view caches in the serving modes")
		hubDeg    = flag.Int("hub-degree", 0, "hub-cache admission degree threshold (0 = default)")
		reb       = flag.Bool("rebalance", false, "enable the heat-aware shard rebalancer in the sharded serving modes")
		rebEvery  = flag.Duration("rebalance-interval", 0, "rebalancer heat-check period (0 = default 500ms)")
		rebImbal  = flag.Float64("rebalance-imbalance", 0, "rebalancer trigger: hottest shard's step share over this multiple of 1/shards (0 = default 1.3)")
		rebMoves  = flag.Int("rebalance-max-moves", 0, "block migrations per heat check (0 = default 4)")
		replicas  = flag.Int("replicas", 1, "block ownership replication factor in the sharded serving modes (R consecutive shards hold each block; survives shard deaths by replica promotion; mutually exclusive with -rebalance)")
		creditWin = flag.Int("credit-window", 0, "per-shard ingest credit window: max routed-but-unapplied update events before Feed blocks (0 = default 16384, negative disables)")
		kernelF   = flag.String("kernel", "auto", "stepping-kernel mode in the serving modes: sparse|dense|auto")
		corpusF   = flag.Bool("corpus", false, "serve -live queries from a standing walk corpus with incremental suffix resampling")
		corpusK   = flag.Int("corpus-walks", 0, "standing walks maintained per vertex in -corpus mode (0 = default 2)")
		corpusSB  = flag.Int("corpus-stale", 0, "staleness bound in -corpus mode: max feed events a corpus answer may trail by before falling back to a fresh walk (0 = default 4096, negative disables the fallback)")
		statsF    = flag.Bool("stats", false, "periodically print a serving summary from the metrics registry; in -corpus mode also print maintenance tallies at the end")
		attach    = flag.String("attach", "", "comma-separated shard-daemon addresses: join a running serving session as a read-coordinator (requires a live -connect write session)")
		debugAddr = flag.String("debug-addr", "", "expose the observability plane (/metrics, /statusz, /eventz, /debug/pprof) on this address (all modes)")
		pprofAddr = flag.String("pprof", "", "alias for -debug-addr (kept for compatibility)")
	)
	flag.Parse()

	if *debugAddr == "" {
		*debugAddr = *pprofAddr
	}
	if *debugAddr != "" {
		// Synchronous bind: a taken port or a bad address fails the run at
		// startup instead of vanishing into a background goroutine's stderr.
		dbg, err := obs.Serve(*debugAddr, nil, nil)
		if err != nil {
			fail(fmt.Errorf("debug-addr: %w", err))
		}
		defer dbg.Close()
		fmt.Printf("debug: serving /metrics, /statusz, /eventz, /debug/pprof on http://%s/\n", dbg.Addr())
	}

	kernel, err := walk.ParseKernelMode(*kernelF)
	if err != nil {
		fail(err)
	}

	hubCache := bingo.HubCacheOptions{Off: *cacheOff, MinDegree: *hubDeg}
	rebOpts := rebalance.Options{On: *reb, Interval: *rebEvery, Imbalance: *rebImbal, MaxMovesPerCycle: *rebMoves}
	if *shardSrv {
		if err := runShardServe(*addr, *shardSpec, *workers, *sessions); err != nil {
			fail(err)
		}
		return
	}
	if *attach != "" {
		if err := runAttach(*attach, *seed, *length, *liveQ, *workers, hubCache); err != nil {
			fail(err)
		}
		return
	}
	if *corpusF && !*live {
		fail(fmt.Errorf("-corpus is a -live serving mode (add -live)"))
	}
	if *live {
		co := corpusOpts{on: *corpusF, walks: *corpusK, stale: *corpusSB, stats: *statsF}
		if err := runLive(*graphPath, *dataset, *scale, *seed, *length, *liveUps, *liveQ, *liveBatch, *workers, *shards, *connect, *replicas, *creditWin, kernel, hubCache, rebOpts, co); err != nil {
			fail(err)
		}
		return
	}

	g, err := loadGraph(*graphPath, *dataset, *scale, *seed)
	if err != nil {
		fail(err)
	}
	st := g.ComputeStats()
	fmt.Printf("graph: %d vertices, %d edges, avg degree %.1f, max degree %d\n",
		st.Vertices, st.Edges, st.AvgDegree, st.MaxDegree)

	cfg := core.DefaultConfig()
	if *workers > 0 {
		cfg.Workers = *workers
	}
	t0 := time.Now()
	var eng *core.Sampler
	if *updates > 0 {
		w, err := gen.BuildWorkload(g, gen.UpdMixed, *updates, 1, *seed)
		if err != nil {
			fail(err)
		}
		eng, err = core.NewFromCSR(w.Initial, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("build: %v\n", time.Since(t0).Round(time.Millisecond))
		t1 := time.Now()
		if _, err := eng.ApplyBatch(w.Updates); err != nil {
			fail(err)
		}
		d := time.Since(t1)
		fmt.Printf("updates: %d in %v (%.0f updates/s)\n",
			len(w.Updates), d.Round(time.Millisecond), float64(len(w.Updates))/d.Seconds())
	} else {
		eng, err = core.NewFromCSR(g, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("build: %v\n", time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("engine memory: %.2f MB\n", float64(eng.Footprint())/1e6)

	apps := map[string]walk.App{
		"deepwalk": walk.AppDeepWalk, "node2vec": walk.AppNode2Vec,
		"ppr": walk.AppPPR, "simple": walk.AppSimple,
	}
	a, ok := apps[*app]
	if !ok {
		fail(fmt.Errorf("unknown app %q", *app))
	}
	wcfg := walk.Config{Length: *length, Seed: *seed, Workers: *workers, CountVisits: true}
	if *walkersN > 0 {
		starts := make([]graph.VertexID, *walkersN)
		for i := range starts {
			starts[i] = graph.VertexID(i % eng.NumVertices())
		}
		wcfg.Starts = starts
	}
	t2 := time.Now()
	res := walk.Run(a, eng, wcfg)
	d := time.Since(t2)
	fmt.Printf("%s: %d walkers, %d steps in %v (%.0f steps/s)\n",
		*app, res.Walkers, res.Steps, d.Round(time.Millisecond), float64(res.Steps)/d.Seconds())

	type vc struct {
		v graph.VertexID
		c int64
	}
	var counts []vc
	for v, c := range res.Visits {
		if c > 0 {
			counts = append(counts, vc{graph.VertexID(v), c})
		}
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i].c > counts[j].c })
	if len(counts) > *top {
		counts = counts[:*top]
	}
	fmt.Printf("top %d visited:\n", len(counts))
	for _, e := range counts {
		fmt.Printf("  vertex %-10d %d visits\n", e.v, e.c)
	}
}

func loadGraph(path, dataset string, scale float64, seed uint64) (*graph.CSR, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	case dataset != "":
		d, err := gen.DatasetByAbbr(dataset)
		if err != nil {
			return nil, err
		}
		return d.Generate(scale, seed)
	default:
		return nil, fmt.Errorf("one of -graph or -dataset is required")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bingowalk:", err)
	os.Exit(1)
}

// runShardServe is the -shard-serve mode: host one shard of a
// multi-process serving topology. Each coordinator session (a
// `bingowalk -live -connect …` elsewhere) gets a fresh engine; after its
// teardown the daemon loops back to accepting the next coordinator
// Hello, for -sessions sessions (0 = forever). The listen address is
// printed first so drivers can scrape it when -addr ends in ":0".
func runShardServe(addr, spec string, workers, sessions int) error {
	var k, n int
	if _, err := fmt.Sscanf(spec, "%d/%d", &k, &n); err != nil || n < 1 || k < 0 || k >= n {
		return fmt.Errorf("-shard %q: want K/N with 0 <= K < N", spec)
	}
	if sessions <= 0 {
		sessions = -1 // serve until killed
	}
	var lastMu sync.Mutex
	last := map[string]any{"shard": k, "of": n, "sessions_served": 0}
	obs.RegisterStatus("shard_daemon", func() any {
		lastMu.Lock()
		defer lastMu.Unlock()
		out := make(map[string]any, len(last))
		for key, v := range last {
			out[key] = v
		}
		return out
	})
	_, err := bingo.ServeShard(addr, k, n, bingo.ShardServeOptions{
		Walkers:  workers,
		Sessions: sessions,
		OnListen: func(a string) {
			fmt.Printf("shard-serve: shard %d/%d listening on %s\n", k, n, a)
		},
		OnSession: func(i int, st bingo.ShardServeStats, err error) {
			lastMu.Lock()
			last["sessions_served"] = i + 1
			if err != nil {
				last["last_error"] = err.Error()
			} else {
				last["last_session"] = st
			}
			lastMu.Unlock()
			if err != nil {
				fmt.Printf("shard-serve: session %d failed: %v\n", i, err)
				return
			}
			fmt.Printf("shard-serve: session %d over: %d steps (%d transfers out, %d hub-cache hits, %d remote-view hops), %d updates applied (%d dropped), %d edges across %d vertices\n",
				i, st.Steps, st.Transfers, st.Cache.LocalHits, st.Cache.RemoteHits, st.Updates, st.Dropped, st.Edges, st.Vertices)
		},
	})
	return err
}

// printRebalance reports the rebalancer's session activity (silent when
// it never ran).
func printRebalance(ls walk.ShardedLiveStats) {
	if ls.Rebalance.PlanEpoch == 0 && ls.Rebalance.Migrations == 0 {
		return
	}
	shares := make([]string, len(ls.ShardSteps))
	for i, s := range ls.ShardSteps {
		share := 0.0
		if ls.Steps > 0 {
			share = float64(s) / float64(ls.Steps)
		}
		shares[i] = fmt.Sprintf("%.2f", share)
	}
	fmt.Printf("rebalance: %d block migrations (%d edges shipped, plan epoch %d), per-shard step share [%s]\n",
		ls.Rebalance.Migrations, ls.Rebalance.MovedEdges, ls.Rebalance.PlanEpoch, strings.Join(shares, " "))
}

// printFabricHealth reports failover activity and ingest-credit pressure
// when either had anything to say.
func printFabricHealth(ls walk.ShardedLiveStats) {
	if f := ls.Failover; f.Deaths > 0 || f.Rejoins > 0 {
		fmt.Printf("failover: %d shard deaths, %d walkers re-routed, %d relaunched, %d rejoins (%d snapshot blocks copied)\n",
			f.Deaths, f.Reroutes, f.Relaunches, f.Rejoins, f.CopiedBlocks)
	}
	if b := ls.Backpressure; b.Window > 0 {
		fmt.Printf("backpressure: credit window %d, max outstanding %d, feed stalled %v\n",
			b.Window, b.MaxOutstanding, b.Stalled.Round(time.Millisecond))
	}
}

// printServing is the single end-of-run formatting path for the sharded
// serving runtimes (in-process and remote report the same
// walk.ShardedLiveStats shape).
func printServing(ls walk.ShardedLiveStats, d time.Duration) {
	fmt.Printf("served %d queries (%d steps) and ingested %d updates in %v\n", ls.Queries, ls.Steps, ls.Updates, d.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f queries/s, %.0f steps/s, %.0f updates/s\n",
		float64(ls.Queries)/d.Seconds(), float64(ls.Steps)/d.Seconds(), float64(ls.Updates)/d.Seconds())
	fmt.Printf("walker transfer: %d cross-shard hand-offs, %d local steps (ratio %.3f)\n",
		ls.Transfers, ls.Local, ls.TransferRatio())
	fmt.Printf("hub cache: %d lock-free hops (%d stale), %d hand-offs absorbed by remote views (%d view requests)\n",
		ls.Cache.LocalHits, ls.Cache.LocalStale, ls.Cache.RemoteHits, ls.Cache.ViewRequests)
	printRebalance(ls)
	printFabricHealth(ls)
}

// statsLine renders the registry's headline counters as one line — the
// -stats periodic printer reads the same snapshot /metrics and /statusz
// expose, so the console view can never drift from the scrape view.
func statsLine() string {
	var b strings.Builder
	b.WriteString("stats:")
	var steps, queries, updates, refreshes int64
	var qp99 time.Duration
	for _, m := range obs.Default.Snapshot() {
		switch m.Name {
		case "bingo_kernel_steps_total":
			steps += m.Value
		case "bingo_query_seconds":
			queries += m.Count
			if d := time.Duration(m.P99Ns); d > qp99 {
				qp99 = d
			}
		case "bingo_ingest_updates_total":
			updates += m.Value
		case "bingo_corpus_refreshes_total":
			refreshes += m.Value
		}
	}
	fmt.Fprintf(&b, " queries=%d steps=%d updates=%d", queries, steps, updates)
	if qp99 > 0 {
		fmt.Fprintf(&b, " query-p99=%v", qp99.Round(10*time.Microsecond))
	}
	if refreshes > 0 {
		fmt.Fprintf(&b, " corpus-refreshes=%d", refreshes)
	}
	return b.String()
}

// statsLoop prints statsLine every interval until stop closes.
func statsLoop(interval time.Duration, stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			fmt.Println(statsLine())
		}
	}
}

// liveServer abstracts the serving runtimes the -live mode can drive:
// the single-engine LiveService, the sharded walker-transfer service
// (in-process shards or daemons behind the TCP fabric), and the standing
// walk corpus wrapping either.
type liveServer interface {
	Query(start graph.VertexID, length int) ([]graph.VertexID, error)
	Feed(ups []graph.Update) error
	Close() error
}

// corpusOpts carry the -corpus flag family into runLive.
type corpusOpts struct {
	on    bool
	walks int
	stale int
	stats bool
}

// printCorpus reports the corpus serving split and, with -stats, the
// maintenance tallies through the ShardedLiveStats ack path (satellite
// view: the same numbers any fabric observer of the service sees).
func printCorpus(c *walk.CorpusService, d time.Duration, withStats bool) {
	cs := c.Stats()
	fmt.Printf("corpus: %d standing walks served %d queries in %v (%.0f queries/s): %d corpus slices (%d stale within bound), %d fresh fallbacks\n",
		cs.Walks, cs.Queries, d.Round(time.Millisecond), float64(cs.Queries)/d.Seconds(),
		cs.CorpusServed, cs.StaleServed, cs.Fallbacks)
	if !withStats {
		return
	}
	ct := c.ShardedStats().Corpus
	fmt.Printf("corpus maintenance: %d refreshes, %d suffix resamples: %d resampled steps vs %d full-walk-equivalent steps (amplification %.3f), max refresh lag %d ms\n",
		cs.Refreshes, ct.Resamples, ct.ResampledSteps, ct.FullWalkSteps, cs.Amplification(), ct.RefreshLagMs)
	fmt.Printf("corpus watermarks: %d events fed, corpus at %d, backend applied stamp %d\n",
		cs.FedEvents, cs.CorpusWatermark, cs.AppliedStamp)
}

// runLive is the -live mode: a walker pool serves queries while a feeder
// streams update batches into the same engine — the walk-while-ingest
// serving scenario (see DESIGN.md, "Concurrency model"). With -shards N>1
// the graph is 1-D partitioned across N engines and walks cross shard
// boundaries by walker transfer (supplement §9.1); with -connect the
// shards are separate daemon processes behind the TCP fabric.
func runLive(graphPath, dataset string, scale float64, seed uint64, length, updates, queries, batchSize, workers, shards int, connect string, replicas, creditWin int, kernel walk.KernelMode, hubCache bingo.HubCacheOptions, rebOpts rebalance.Options, co corpusOpts) error {
	g, err := loadGraph(graphPath, dataset, scale, seed)
	if err != nil {
		return err
	}
	if updates <= 0 {
		updates = 1
	}
	w, err := gen.BuildWorkload(g, gen.UpdMixed, updates, 1, seed)
	if err != nil {
		return err
	}
	// Report the snapshot the engine actually starts from: BuildWorkload
	// withholds the tape's deletable edges from the initial graph.
	st := w.Initial.ComputeStats()
	fmt.Printf("graph: %d vertices, %d initial edges, avg degree %.1f (+%d updates to stream)\n",
		st.Vertices, st.Edges, st.AvgDegree, len(w.Updates))
	if workers <= 0 {
		workers = 1 // the -workers contract: 0 = 1
	}

	cacheSpec := fabric.CacheSpec{Off: hubCache.Off, MinDegree: hubCache.MinDegree}
	ccfg := walk.CorpusConfig{
		WalksPerVertex: co.walks,
		WalkLength:     length,
		Seed:           seed,
		StalenessBound: int64(co.stale),
		CreditWindow:   creditWin,
		Cache:          cacheSpec,
		Kernel:         kernel,
	}
	var svc liveServer
	var single *concurrent.Engine
	var sharded *walk.ShardedLiveService
	var corpus *walk.CorpusService
	var shardEngines []*concurrent.Engine
	if connect != "" {
		addrs := strings.Split(connect, ",")
		plan := walk.NewShardPlan(w.Initial.NumVertices(), len(addrs))
		if replicas > 1 {
			plan.Replicas = replicas
		}
		port, err := tcpgob.DialWith(addrs, fabric.Hello{
			RangeSize:   plan.RangeSize,
			NumVertices: w.Initial.NumVertices(),
			Cache:       cacheSpec,
			Replicas:    plan.Replicas,
			Kernel:      kernel.String(),
		}, tcpgob.DialConfig{Resilient: plan.Replicas > 1})
		if err != nil {
			return err
		}
		sharded, err = walk.NewShardedLiveServiceOver(port, plan, w.Initial.NumVertices(), walk.ShardedLiveConfig{
			WalkLength: length, Seed: seed, Rebalance: rebOpts,
			CreditWindow: creditWin,
		})
		if err != nil {
			return err
		}
		if err := sharded.Bootstrap(w.Initial); err != nil {
			return fmt.Errorf("bootstrap: %w", err)
		}
		fmt.Printf("live: %d shard daemons over the TCP fabric (range size %d), feeding %d updates in batches of %d\n",
			plan.Shards, plan.RangeSize, len(w.Updates), batchSize)
	} else if shards > 1 {
		plan := walk.NewShardPlan(w.Initial.NumVertices(), shards)
		if replicas > 1 {
			plan.Replicas = replicas
		}
		engines, err := walk.BootstrapShards(w.Initial, plan, func() (walk.LiveEngine, error) {
			s, err := core.New(w.Initial.NumVertices(), core.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return concurrent.Wrap(s, concurrent.Config{}), nil
		})
		if err != nil {
			return err
		}
		shardEngines = make([]*concurrent.Engine, plan.Shards)
		for i, e := range engines {
			shardEngines[i] = e.(*concurrent.Engine)
		}
		sharded, err = walk.NewShardedLiveService(engines, plan, walk.ShardedLiveConfig{
			WalkersPerShard: workers, WalkLength: length, Seed: seed, Cache: cacheSpec,
			Rebalance: rebOpts, CreditWindow: creditWin, Kernel: kernel,
		})
		if err != nil {
			return err
		}
		fmt.Printf("live: %d shards × %d crew walkers (range size %d), feeding %d updates in batches of %d\n",
			plan.Shards, workers, plan.RangeSize, len(w.Updates), batchSize)
	} else {
		eng, err := core.NewFromCSR(w.Initial, core.DefaultConfig())
		if err != nil {
			return err
		}
		single = concurrent.Wrap(eng, concurrent.Config{})
		if co.on {
			if corpus, err = walk.NewCorpusService(single, ccfg); err != nil {
				return err
			}
			svc = corpus
		} else {
			svc = walk.NewLiveService(single, walk.LiveConfig{Walkers: workers, WalkLength: length, Seed: seed, Cache: cacheSpec, Kernel: kernel})
		}
		fmt.Printf("live: %d pool walkers, %d lock stripes, feeding %d updates in batches of %d\n",
			workers, single.Stripes(), len(w.Updates), batchSize)
	}
	if sharded != nil {
		svc = sharded
		if co.on {
			if corpus, err = walk.NewShardedCorpusService(sharded, w.Initial.NumVertices(), ccfg); err != nil {
				return err
			}
			svc = corpus
		}
	}
	if corpus != nil {
		fmt.Printf("corpus: %d standing walks grown (length %d), refresh loop running\n",
			corpus.Stats().Walks, length)
	}

	// /statusz sections: each runtime in play exposes its structured
	// stats snapshot beside the registry.
	if sharded != nil {
		obs.RegisterStatus("sharded", func() any { return sharded.Stats() })
	} else if lsvc, ok := svc.(*walk.LiveService); ok {
		obs.RegisterStatus("live", func() any { return lsvc.Stats() })
	}
	if corpus != nil {
		obs.RegisterStatus("corpus", func() any { return corpus.Stats() })
	}

	var statsDone sync.WaitGroup
	statsStop := make(chan struct{})
	if co.stats {
		statsDone.Add(1)
		go statsLoop(2*time.Second, statsStop, &statsDone)
	}

	t0 := time.Now()
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		for lo := 0; lo < len(w.Updates); lo += batchSize {
			hi := lo + batchSize
			if hi > len(w.Updates) {
				hi = len(w.Updates)
			}
			if err := svc.Feed(w.Updates[lo:hi]); err != nil {
				fmt.Fprintln(os.Stderr, "bingowalk: feed:", err)
				return
			}
		}
	}()

	var clients sync.WaitGroup
	clientN := workers * max(1, shards)
	perClient := (queries + clientN - 1) / clientN
	for c := 0; c < clientN; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			r := xrand.New(seed + uint64(c) + 1)
			for q := 0; q < perClient; q++ {
				if _, err := svc.Query(graph.VertexID(r.Intn(g.NumVertices())), length); err != nil {
					fmt.Fprintln(os.Stderr, "bingowalk: query:", err)
					return
				}
			}
		}(c)
	}
	clients.Wait()
	feeder.Wait()
	if sharded != nil {
		// Final barrier so the session's ingest tallies are exact before
		// the stats snapshot (daemon shards report them through acks).
		if err := sharded.Sync(); err != nil {
			return err
		}
	}
	if err := svc.Close(); err != nil {
		return err
	}
	d := time.Since(t0)
	close(statsStop)
	statsDone.Wait()
	if co.stats {
		fmt.Println(statsLine())
	}

	if corpus != nil {
		printCorpus(corpus, d, co.stats)
	}
	if sharded != nil {
		printServing(sharded.Stats(), d)
		if shardEngines == nil {
			fmt.Printf("final graph: %d vertices across %d shard daemons\n", sharded.NumVertices(), sharded.Shards())
			return nil
		}
		var edges, mem int64
		for _, e := range shardEngines {
			edges += e.NumEdges()
			mem += e.Footprint()
		}
		fmt.Printf("final graph: %d edges across %d shards, engine memory %.2f MB\n",
			edges, len(shardEngines), float64(mem)/1e6)
		return nil
	}
	if corpus != nil {
		fmt.Printf("final graph: %d edges, engine memory %.2f MB\n", single.NumEdges(), float64(single.Footprint())/1e6)
		return nil
	}
	ls := svc.(*walk.LiveService).Stats()
	fmt.Printf("served %d queries (%d steps) and ingested %d updates in %v\n", ls.Queries, ls.Steps, ls.Updates, d.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f queries/s, %.0f steps/s, %.0f updates/s\n",
		float64(ls.Queries)/d.Seconds(), float64(ls.Steps)/d.Seconds(), float64(ls.Updates)/d.Seconds())
	fmt.Printf("hub cache: %d lock-free hops, %d stale views refreshed\n", ls.CacheHits, ls.CacheStale)
	fmt.Printf("final graph: %d edges, engine memory %.2f MB\n", single.NumEdges(), float64(single.Footprint())/1e6)
	return nil
}

// runAttach is the -attach mode: join a running multi-process serving
// session as a read-coordinator. The shard daemons must already be
// driven by a write session (`bingowalk -live -connect …` elsewhere);
// this process learns the plan, epoch, and watermarks from that
// session's broadcast stream and serves queries beside it without ever
// touching the ingest path.
func runAttach(addrs string, seed uint64, length, queries, workers int, hubCache bingo.HubCacheOptions) error {
	list := strings.Split(addrs, ",")
	rd, err := bingo.AttachReader(list, bingo.ReaderOptions{
		WalkLength: length,
		Seed:       seed,
		HubCache:   hubCache,
	})
	if err != nil {
		return err
	}
	defer rd.Close()
	obs.RegisterStatus("reader", func() any { return rd.Stats() })
	verts := rd.NumVertices()
	fmt.Printf("attach: read-coordinator joined %d shard daemons (plan epoch %d, %d vertices, applied stamp %d)\n",
		len(list), rd.Stats().PlanEpoch, verts, rd.AppliedStamp())

	if workers <= 0 {
		workers = 1
	}
	perClient := (queries + workers - 1) / workers
	var served atomic.Int64
	t0 := time.Now()
	var clients sync.WaitGroup
	for c := 0; c < workers; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			r := xrand.New(seed + uint64(c) + 1)
			for q := 0; q < perClient; q++ {
				if _, err := rd.Query(graph.VertexID(r.Intn(verts)), length); err != nil {
					fmt.Fprintln(os.Stderr, "bingowalk: attach query:", err)
					return
				}
				served.Add(1)
			}
		}(c)
	}
	clients.Wait()
	d := time.Since(t0)

	st := rd.Stats()
	fmt.Printf("served %d queries (%d steps) in %v (%.0f queries/s, %.0f steps/s)\n",
		st.Queries, st.Steps, d.Round(time.Millisecond),
		float64(served.Load())/d.Seconds(), float64(st.Steps)/d.Seconds())
	fmt.Printf("reader cache: %d hub-view hops served locally (%d cached views, %d view requests), %d walker launches (%d shard hand-offs)\n",
		st.LocalHits, st.CachedViews, st.ViewRequests, st.Launches, st.Transfers)
	fmt.Printf("broadcast: plan epoch %d (%d flips seen), applied stamp %d\n",
		st.PlanEpoch, st.PlanFlips, st.Applied)
	return nil
}
