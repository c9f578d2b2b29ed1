package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// ShardedThroughput is the partitioned serving scenario: a client fleet
// queries a sharded live service — N per-shard engines, ingest router,
// cross-shard walker transfer, hub-view caches — while a feeder paces
// update batches to a target share of total operations. The grid sweeps
// shard count × update load × *transport* × *cache* × *workload*:
// `inproc` runs the shards over the in-process fabric (the
// ShardedLiveService channels), `tcp` runs the identical node and
// coordinator logic over loopback TCP (the tcpgob fabric ServeRemote
// sessions and the shard daemons speak), so the inproc→tcp delta is the measured
// cost of crossing the wire; cache `on`/`off` toggles the two hub-view
// cache layers, so the off→on delta is the measured value of serving
// hub hops lock-free and without hand-offs; workload `uniform` starts
// walks anywhere, `hubskew` starts them on the highest-degree vertices
// (the hub-revisit-heavy serving pattern the cache targets). Emits
// BENCH_sharded.json for diffing runs.

// ShardedSeries is one measured (workload, transport, cache, kernel,
// procs, shards, load) grid cell.
type ShardedSeries struct {
	Workload        string  `json:"workload"` // uniform | hubskew
	Transport       string  `json:"transport"`
	Cache           string  `json:"cache"`  // on | off
	Kernel          string  `json:"kernel"` // sparse | dense | auto
	Procs           int     `json:"procs"`  // GOMAXPROCS inside the cell
	Shards          int     `json:"shards"`
	UpdateLoadPct   float64 `json:"update_load_pct"` // nominal target share
	Walks           int64   `json:"walks"`
	Steps           int64   `json:"steps"`
	Updates         int64   `json:"updates"`
	Transfers       int64   `json:"transfers"`
	Local           int64   `json:"local"`
	LocalHits       int64   `json:"local_hits"`  // crew-cache lock-free hops
	RemoteHits      int64   `json:"remote_hits"` // hand-offs absorbed by remote views
	LocalStale      int64   `json:"local_stale"`
	ViewRequests    int64   `json:"view_requests"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	WalksPerSec     float64 `json:"walks_per_sec"`
	StepsPerSec     float64 `json:"steps_per_sec"`
	UpdatesPerSec   float64 `json:"updates_per_sec"`
	TransferRatio   float64 `json:"transfer_ratio"`    // hand-offs per sampled hop: transfers/steps
	LocalHitRate    float64 `json:"local_hit_rate"`    // local_hits/steps
	AchievedLoadPct float64 `json:"achieved_load_pct"` // updates/(updates+steps)
}

// ShardedReport is the BENCH_sharded.json document.
type ShardedReport struct {
	Scenario   string          `json:"scenario"`
	Dataset    string          `json:"dataset"`
	Vertices   int             `json:"vertices"`
	Edges      int64           `json:"edges"`
	Clients    int             `json:"clients"`
	WalkLength int             `json:"walk_length"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Series     []ShardedSeries `json:"series"`
}

// shardedShards and the load vectors span the measured grid (transports
// and cache modes come from Options). The hub-skewed workload measures
// hop throughput under hub revisits, so it sweeps the lighter loads
// only.
var (
	shardedShards      = []int{1, 2, 4, 8}
	shardedLoads       = []float64{0, 0.10, 0.50}
	shardedHubLoads    = []float64{0, 0.10}
	shardedWorkloads   = []string{"uniform", "hubskew"}
	shardedHubFraction = 0.01 // top-degree share forming the hub start set
)

// shardedKernelShards is the shard count the focused kernel × procs
// sweep runs at (a mid-grid point with real cross-shard traffic).
const shardedKernelShards = 4

// shardedMinWindow is the minimum measurement window: clients keep
// issuing walks past their quota until it elapses, so the pacer's
// 100 µs sleep cycle always gets to feed (the old ~3 ms windows ended
// before the first batch landed, recording updates: 0 at every load).
const shardedMinWindow = 250 * time.Millisecond

func runSharded(o *Options) error {
	abbr := o.Datasets[0]
	_, g, err := o.dataset(abbr)
	if err != nil {
		return err
	}
	w, err := o.workload(abbr, g, gen.UpdMixed, 4096)
	if err != nil {
		return err
	}

	// Honor the Workers contract every runner documents ("0 = 1"). The
	// client fleet size is held constant across the shard sweep so the
	// comparison isolates the serving topology, and the per-shard crews
	// split the same worker budget.
	clients := o.Workers
	totalWalks := o.MaxWalkers
	if totalWalks < clients {
		totalWalks = clients
	}
	walksPer := totalWalks / clients

	rep := ShardedReport{
		Scenario:   "ShardedThroughput",
		Dataset:    abbr,
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
		Clients:    clients,
		WalkLength: o.WalkLength,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	hubs := hubStarts(g)
	tbl := newTable(o.Out)
	tbl.row("workload", "transport", "cache", "kernel", "procs", "shards", "update load", "walks/s", "steps/s", "updates/s", "transfer ratio", "hit rate", "achieved load")
	emit := func(ser ShardedSeries) {
		rep.Series = append(rep.Series, ser)
		tbl.row(
			ser.Workload,
			ser.Transport,
			ser.Cache,
			ser.Kernel,
			fmt.Sprintf("%d", ser.Procs),
			fmt.Sprintf("%d", ser.Shards),
			fmt.Sprintf("%.0f%%", ser.UpdateLoadPct),
			fmt.Sprintf("%.0f", ser.WalksPerSec),
			fmt.Sprintf("%.0f", ser.StepsPerSec),
			fmt.Sprintf("%.0f", ser.UpdatesPerSec),
			fmt.Sprintf("%.3f", ser.TransferRatio),
			fmt.Sprintf("%.3f", ser.LocalHitRate),
			fmt.Sprintf("%.1f%%", ser.AchievedLoadPct),
		)
	}
	hostProcs := runtime.GOMAXPROCS(0)
	for _, workload := range shardedWorkloads {
		loads := shardedLoads
		var starts []graph.VertexID
		if workload == "hubskew" {
			loads = shardedHubLoads
			starts = hubs
		}
		for _, transport := range o.Transports {
			for _, cacheMode := range o.CacheModes {
				for _, shards := range shardedShards {
					for _, load := range loads {
						ser, err := shardedCell(o, g, w, workload, transport, cacheMode, walk.KernelAuto, hostProcs, shards, load, clients, walksPer, starts)
						if err != nil {
							return fmt.Errorf("%s %s cache=%s shards=%d load=%.0f%%: %w", workload, transport, cacheMode, shards, load*100, err)
						}
						emit(ser)
					}
				}
			}
		}
	}
	// The focused kernel sweep: kernel × procs on the cell where frontier
	// batching has co-location to exploit — hub-skewed starts, in-process
	// fabric, pure walk load. Sparse runs caches off (the per-walker
	// locked baseline), dense/auto run them on.
	for _, kernelName := range o.KernelModes {
		kernel, err := walk.ParseKernelMode(kernelName)
		if err != nil {
			return err
		}
		cacheMode := "on"
		if kernel == walk.KernelSparse {
			cacheMode = "off"
		}
		for _, procs := range o.Procs {
			ser, err := shardedCell(o, g, w, "hubskew", "inproc", cacheMode, kernel, procs, shardedKernelShards, 0, clients, walksPer, hubs)
			if err != nil {
				return fmt.Errorf("kernel sweep %s procs=%d: %w", kernelName, procs, err)
			}
			emit(ser)
		}
	}
	tbl.flush()

	return o.writeReport("BENCH_sharded.json", &rep)
}

// hubStarts returns the top-degree hub set (at least 8 vertices, at most
// the top shardedHubFraction) the hub-skewed workload starts walks on.
func hubStarts(g *graph.CSR) []graph.VertexID {
	n := g.NumVertices()
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = graph.VertexID(i)
	}
	sort.Slice(ids, func(i, j int) bool { return g.Degree(ids[i]) > g.Degree(ids[j]) })
	k := int(float64(n) * shardedHubFraction)
	if k < 8 {
		k = 8
	}
	if k > n {
		k = n
	}
	return ids[:k]
}

// newShardedService builds a bootstrapped serving runtime for one cell on
// the chosen transport. For tcp, the shard nodes run in-process but
// behind real loopback sockets — the same frames, handshake, and
// per-peer streams `bingowalk -shard-serve` daemons speak — so the cell
// isolates wire cost without fork/exec noise.
func newShardedService(o *Options, g *graph.CSR, transport string, cache fabric.CacheSpec, kernel walk.KernelMode, shards, crew int) (*walk.ShardedLiveService, error) {
	cfg := walk.ShardedLiveConfig{WalkersPerShard: crew, WalkLength: o.WalkLength, Seed: o.Seed, Cache: cache, Kernel: kernel}
	return newShardedServiceWithConfig(o, g, transport, cache, shards, crew, cfg)
}

// newShardedServiceWithConfig is newShardedService with the full service
// config exposed (the rebalance scenario passes a Rebalance policy; the
// cache spec still travels separately because the tcp transport ships it
// in the session Hello).
func newShardedServiceWithConfig(o *Options, g *graph.CSR, transport string, cache fabric.CacheSpec, shards, crew int, cfg walk.ShardedLiveConfig) (*walk.ShardedLiveService, error) {
	switch transport {
	case "inproc":
		plan := walk.NewShardPlan(g.NumVertices(), shards)
		engines, err := walk.BootstrapShards(g, plan, func() (walk.LiveEngine, error) {
			return o.shardEngine(g.NumVertices())
		})
		if err != nil {
			return nil, err
		}
		return walk.NewShardedLiveService(engines, plan, cfg)
	case "tcp":
		svc, _, err := newLoopbackService(o, g, cache, shards, crew, cfg)
		return svc, err
	default:
		return nil, fmt.Errorf("bench: unknown transport %q", transport)
	}
}

// shardEngine builds one empty concurrent shard engine.
func (o *Options) shardEngine(numVertices int) (walk.LiveEngine, error) {
	s, err := core.New(numVertices, o.bingoConfig())
	if err != nil {
		return nil, err
	}
	return concurrent.Wrap(s, concurrent.Config{}), nil
}

// newLoopbackService starts shards in-process shard nodes behind real
// loopback tcpgob listeners, opens a write session over them, and
// bootstraps g. It also returns the listen addresses, where readers
// attach.
func newLoopbackService(o *Options, g *graph.CSR, cache fabric.CacheSpec, shards, crew int, cfg walk.ShardedLiveConfig) (*walk.ShardedLiveService, []string, error) {
	plan := walk.NewShardPlan(g.NumVertices(), shards)
	listeners := make([]*tcpgob.Listener, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		l, err := tcpgob.Listen("127.0.0.1:0", i, shards)
		if err != nil {
			return nil, nil, err
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	for i := 0; i < shards; i++ {
		go func(i int) {
			defer listeners[i].Close()
			sc, hello, err := listeners[i].Accept()
			if err != nil {
				return
			}
			e, err := o.shardEngine(hello.NumVertices)
			if err != nil {
				sc.Close()
				return
			}
			nodePlan := walk.ShardPlan{
				Shards: hello.Shards, RangeSize: hello.RangeSize,
				Epoch: hello.PlanEpoch, Overlay: hello.Overlay,
			}
			kern, _ := walk.ParseKernelMode(hello.Kernel)
			walk.RunShardNode(e, nodePlan, i, sc, crew, hello.Cache, kern)
		}(i)
	}
	port, err := tcpgob.Dial(addrs, fabric.Hello{
		RangeSize:   plan.RangeSize,
		NumVertices: g.NumVertices(),
		FloatBias:   o.bingoConfig().FloatBias,
		Cache:       cache,
		Kernel:      cfg.Kernel.String(),
	})
	if err != nil {
		return nil, nil, err
	}
	svc, err := walk.NewShardedLiveServiceOver(port, plan, g.NumVertices(), cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := svc.Bootstrap(g); err != nil {
		svc.Close()
		return nil, nil, err
	}
	return svc, addrs, nil
}

// shardedCell measures one (workload, transport, cache, kernel, procs,
// shards, load) point on fresh engines (the feeder mutates the graph,
// so cells must not share state). starts restricts walk starts (nil =
// whole space); procs pins GOMAXPROCS for the cell's duration.
func shardedCell(o *Options, g *graph.CSR, w *gen.Workload, workload, transport, cacheMode string, kernel walk.KernelMode, procs, shards int, load float64, clients, walksPer int, starts []graph.VertexID) (ShardedSeries, error) {
	crew := clients / shards
	if crew < 1 {
		crew = 1
	}
	prevProcs := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prevProcs)
	cache := fabric.CacheSpec{Off: cacheMode == "off"}
	svc, err := newShardedService(o, g, transport, cache, kernel, shards, crew)
	if err != nil {
		return ShardedSeries{}, err
	}

	// Prime the feed path before the clock starts: the first batch lands
	// and syncs outside the window, so the pacer never starts cold, and
	// its updates are excluded from the measured tallies below.
	next := 0
	if load > 0 {
		hi := 256
		if hi > len(w.Updates) {
			hi = len(w.Updates)
		}
		if err := svc.Feed(append([]graph.Update(nil), w.Updates[:hi]...)); err != nil {
			return ShardedSeries{}, fmt.Errorf("prime: %w", err)
		}
		if err := svc.Sync(); err != nil {
			return ShardedSeries{}, fmt.Errorf("prime: %w", err)
		}
		next = hi
	}
	// The pre-window baseline: bootstrap (tcp transport) plus the primed
	// batch. Measured updates are deltas against it.
	baseUpdates := svc.Stats().Updates

	done := make(chan struct{})
	var fed atomic.Int64 // updates accepted by the pacer inside the window
	var feeder sync.WaitGroup
	if load > 0 {
		feeder.Add(1)
		go func() {
			defer feeder.Done()
			ratio := load / (1 - load) // updates per walk step
			for {
				select {
				case <-done:
					return
				default:
				}
				// Pace against the service's live step counter and the
				// pacer's own accepted count (service-side Updates lag a
				// Sync on the tcp transport, so they cannot pace).
				budget := int64(ratio*float64(svc.Stats().Steps)) - fed.Load()
				if budget < 256 {
					// Sleep rather than spin: a hot pacer would steal a core
					// from the shard crews inside the measured window.
					time.Sleep(100 * time.Microsecond)
					continue
				}
				hi := next + 256
				if hi > len(w.Updates) {
					hi = len(w.Updates)
				}
				batch := append([]graph.Update(nil), w.Updates[next:hi]...)
				if err := svc.Feed(batch); err != nil {
					return // Close raced the pacer; Err is checked below
				}
				fed.Add(int64(len(batch)))
				next = hi
				if next >= len(w.Updates) {
					next = 0 // cycle the tape; re-deletes are tolerated
				}
			}
		}()
	}

	// Clients issue their walk quota, then keep walking until the minimum
	// window has elapsed — short cells otherwise end before the pacer's
	// first sleep cycle and record a dishonest zero load.
	start := time.Now()
	var walks atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(o.Seed ^ seed)
			for q := 0; ; q++ {
				if q >= walksPer && time.Since(start) >= shardedMinWindow {
					return
				}
				var st graph.VertexID
				if len(starts) > 0 {
					st = starts[r.Intn(len(starts))]
				} else {
					st = graph.VertexID(r.Intn(g.NumVertices()))
				}
				if _, err := svc.Query(st, o.WalkLength); err != nil {
					return
				}
				walks.Add(1)
			}
		}(uint64(c) + 1)
	}
	wg.Wait()
	close(done)
	feeder.Wait()
	// Sync before snapshotting: batches accepted inside the window are
	// fully applied, so the achieved load is honest, and the drain time
	// is charged to the window that caused it.
	if err := svc.Sync(); err != nil {
		return ShardedSeries{}, fmt.Errorf("ingest: %w", err)
	}
	elapsed := time.Since(start)
	st := svc.Stats()
	if err := svc.Close(); err != nil {
		return ShardedSeries{}, fmt.Errorf("ingest: %w", err)
	}
	if st.Dropped > 0 {
		return ShardedSeries{}, fmt.Errorf("%d feed batches dropped", st.Dropped)
	}

	updates := st.Updates - baseUpdates
	achieved := 0.0
	if st.Steps+updates > 0 {
		achieved = float64(updates) / float64(st.Steps+updates)
	}
	hitRate := 0.0
	if st.Steps > 0 {
		hitRate = float64(st.Cache.LocalHits) / float64(st.Steps)
	}
	return ShardedSeries{
		Workload:        workload,
		Transport:       transport,
		Cache:           cacheMode,
		Kernel:          kernel.String(),
		Procs:           procs,
		Shards:          shards,
		UpdateLoadPct:   load * 100,
		Walks:           walks.Load(),
		Steps:           st.Steps,
		Updates:         updates,
		Transfers:       st.Transfers,
		Local:           st.Local,
		LocalHits:       st.Cache.LocalHits,
		RemoteHits:      st.Cache.RemoteHits,
		LocalStale:      st.Cache.LocalStale,
		ViewRequests:    st.Cache.ViewRequests,
		ElapsedSec:      elapsed.Seconds(),
		WalksPerSec:     float64(walks.Load()) / elapsed.Seconds(),
		StepsPerSec:     float64(st.Steps) / elapsed.Seconds(),
		UpdatesPerSec:   float64(updates) / elapsed.Seconds(),
		TransferRatio:   st.TransferRatio(),
		LocalHitRate:    hitRate,
		AchievedLoadPct: achieved * 100,
	}, nil
}
