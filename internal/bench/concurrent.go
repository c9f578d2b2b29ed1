package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// ConcurrentThroughput is the walk-while-ingest scenario: bulk walk
// rounds run over the concurrent engine through the shared stepping
// kernel while a feeder applies update batches paced to a target share
// of total operations. The grid sweeps *workload* × *kernel* × *procs*
// × update load: workload `uniform` starts walks everywhere, `hubskew`
// starts them on the highest-degree vertices (the frontier-co-location
// pattern dense stepping targets); kernel `sparse` is the per-walker
// locked baseline (hub caches off — byte-for-byte the pre-kernel
// loop), `dense`/`auto` batch co-located walkers and serve hubs from
// epoch-validated views; procs pins GOMAXPROCS for the cell, so the
// 1-vs-4 rows measure how each kernel scales (or timeshares) cores.
// Emits BENCH_concurrent.json for diffing runs.

// ConcurrentSeries is one measured (workload, kernel, procs, load)
// grid cell.
type ConcurrentSeries struct {
	Workload        string  `json:"workload"`        // uniform | hubskew
	Kernel          string  `json:"kernel"`          // sparse | dense | auto
	Procs           int     `json:"procs"`           // GOMAXPROCS inside the cell
	UpdateLoadPct   float64 `json:"update_load_pct"` // nominal target share
	Walks           int64   `json:"walks"`
	Steps           int64   `json:"steps"`
	Updates         int64   `json:"updates"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	WalksPerSec     float64 `json:"walks_per_sec"`
	StepsPerSec     float64 `json:"steps_per_sec"`
	UpdatesPerSec   float64 `json:"updates_per_sec"`
	AchievedLoadPct float64 `json:"achieved_load_pct"` // updates/(updates+steps)
}

// ObsOverheadRow prices the observability layer on the hottest cell:
// the same (hubskew, auto, max-procs, 0%% load) point measured with the
// metrics registry recording and with the obs.SetEnabled kill switch
// off. The acceptance budget is <2%% steps/s overhead.
type ObsOverheadRow struct {
	Workload       string  `json:"workload"`
	Kernel         string  `json:"kernel"`
	Procs          int     `json:"procs"`
	StepsPerSecOn  float64 `json:"steps_per_sec_metrics_on"`
	StepsPerSecOff float64 `json:"steps_per_sec_metrics_off"`
	OverheadPct    float64 `json:"overhead_pct"` // (off-on)/off; negative = noise
}

// ConcurrentReport is the BENCH_concurrent.json document.
type ConcurrentReport struct {
	Scenario    string             `json:"scenario"`
	Dataset     string             `json:"dataset"`
	Vertices    int                `json:"vertices"`
	Edges       int64              `json:"edges"`
	Walkers     int                `json:"walkers"` // walks per kernel round
	WalkLength  int                `json:"walk_length"`
	GOMAXPROCS  int                `json:"gomaxprocs"` // host setting outside the cells
	Stripes     int                `json:"stripes"`
	Series      []ConcurrentSeries `json:"series"`
	ObsOverhead *ObsOverheadRow    `json:"obs_overhead,omitempty"`
}

// concurrentLoads are the nominal update shares the uniform workload
// sweeps. The hub-skewed workload adds a 90% row: at that ratio the
// pacer's budget is never met, so the feed runs flat out and every
// kernel faces the same saturating writer — the walk-while-ingest
// stress point where lock convoys, not draw cost, set walk throughput
// (the achieved-load column reports the share actually reached).
var (
	concurrentLoads    = []float64{0, 0.10, 0.50}
	concurrentHubLoads = []float64{0, 0.10, 0.90}
)

// The hub-skew topology: concurrentHubCount hubs receive 7 of every 8
// edges, so a kernelBatch-sized frontier parks ~batch/hubs walkers per
// hub every round.
const (
	concurrentHubCount = 32
	concurrentHubDeg   = 8
)

// feedBatch is the ingest batch size the dispatcher ships to the
// appliers. Bulk-sized batches are what make the load sweep
// discriminating on lock behavior: a 4096-update batch holds each
// touched stripe's write lock long enough to span scheduler quanta, so
// locked samplers genuinely park behind the writer, while view-cached
// kernels keep drawing on vertices the batch never rewrote.
const feedBatch = 4096

// hubGraph builds the hub-dominated stand-in the hub-skew cells walk:
// every vertex (hubs included) has deg out-edges, 7/8 of them into the
// hub set, so walks re-land on hubs nearly every hop regardless of where
// they started. The remaining tail edge is log-skewed rather than
// uniform — P(dst = d) ∝ ln(verts/d) — matching how heavy-tailed graphs
// actually wire their non-hub endpoints: popularity decays continuously
// below the hubs instead of falling off a cliff into a uniform cold
// tail. (A uniform tail would turn every eighth hop into a DRAM miss on
// an arbitrary row, measuring memory latency rather than the sampling
// path the kernel sweep exists to compare.)
func hubGraph(verts, hubs, deg int, seed uint64) (*graph.CSR, error) {
	r := xrand.New(seed ^ 0x4b06)
	edges := make([]graph.Edge, 0, verts*deg)
	for v := 0; v < verts; v++ {
		for j := 0; j < deg; j++ {
			dst := graph.VertexID(r.Intn(hubs))
			if j%8 == 7 {
				dst = graph.VertexID(r.Intn(1 + r.Intn(verts)))
			}
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: dst, Bias: uint64(1 + r.Intn(16))})
		}
	}
	return graph.FromEdges(verts, edges)
}

func runConcurrent(o *Options) error {
	abbr := o.Datasets[0]
	_, g, err := o.dataset(abbr)
	if err != nil {
		return err
	}
	w, err := o.workload(abbr, g, gen.UpdMixed, 4096)
	if err != nil {
		return err
	}

	uniform := o.walkers(g.NumVertices())

	// The hub-skew workload runs on a hub-dominated topology — nearly
	// every edge lands on one of a few dozen hubs, so the frontier
	// re-concentrates every hop (the "thousands of walkers on the same
	// hub" regime dense stepping exists for) — with its own update tape.
	hubG, err := hubGraph(g.NumVertices(), concurrentHubCount, concurrentHubDeg, o.Seed)
	if err != nil {
		return err
	}
	wHub, err := gen.BuildWorkload(hubG, gen.UpdMixed, 4096, o.Rounds, o.Seed)
	if err != nil {
		return err
	}
	skewed := make([]graph.VertexID, len(uniform))
	for i := range skewed {
		skewed[i] = graph.VertexID(i % concurrentHubCount)
	}

	rep := ConcurrentReport{
		Scenario:   "ConcurrentThroughput",
		Dataset:    abbr,
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
		Walkers:    len(uniform),
		WalkLength: o.WalkLength,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	tbl := newTable(o.Out)
	tbl.row("workload", "kernel", "procs", "update load", "walks/s", "steps/s", "updates/s", "achieved load")
	for _, workload := range []string{"uniform", "hubskew"} {
		loads, starts, cellG, cellW := concurrentLoads, uniform, g, w
		if workload == "hubskew" {
			loads, starts, cellG, cellW = concurrentHubLoads, skewed, hubG, wHub
		}
		for _, kernelName := range o.KernelModes {
			for _, procs := range o.Procs {
				for _, load := range loads {
					ser, stripes, err := concurrentCell(o, cellG, cellW, workload, kernelName, procs, load, starts)
					if err != nil {
						return fmt.Errorf("%s kernel=%s procs=%d load=%.0f%%: %w", workload, kernelName, procs, load*100, err)
					}
					rep.Stripes = stripes
					rep.Series = append(rep.Series, ser)
					tbl.row(
						ser.Workload,
						ser.Kernel,
						fmt.Sprintf("%d", ser.Procs),
						fmt.Sprintf("%.0f%%", ser.UpdateLoadPct),
						fmt.Sprintf("%.0f", ser.WalksPerSec),
						fmt.Sprintf("%.0f", ser.StepsPerSec),
						fmt.Sprintf("%.0f", ser.UpdatesPerSec),
						fmt.Sprintf("%.1f%%", ser.AchievedLoadPct),
					)
				}
			}
		}
	}
	tbl.flush()

	obsRow, err := concurrentObsDelta(o, hubG, wHub, skewed)
	if err != nil {
		return fmt.Errorf("obs delta: %w", err)
	}
	rep.ObsOverhead = obsRow
	fmt.Fprintf(o.Out, "obs overhead (%s/%s, %d procs): %.0f steps/s metrics-on vs %.0f metrics-off (%+.2f%%)\n",
		obsRow.Workload, obsRow.Kernel, obsRow.Procs, obsRow.StepsPerSecOn, obsRow.StepsPerSecOff, obsRow.OverheadPct)

	return o.writeReport("BENCH_concurrent.json", &rep)
}

// concurrentObsDelta measures the metrics-on vs metrics-off steps/s
// delta on the hub-skewed auto-kernel cell at zero update load — the
// densest stepping regime, so per-round instrument cost is maximally
// visible while feeder scheduling noise is excluded. Best-of-2 per
// setting damps scheduler jitter; the kill switch is restored to on
// regardless of outcome.
func concurrentObsDelta(o *Options, g *graph.CSR, w *gen.Workload, starts []graph.VertexID) (*ObsOverheadRow, error) {
	procs := o.Procs[len(o.Procs)-1]
	defer obs.SetEnabled(true)
	best := func(on bool) (float64, error) {
		obs.SetEnabled(on)
		var b float64
		for i := 0; i < 2; i++ {
			ser, _, err := concurrentCell(o, g, w, "hubskew", "auto", procs, 0, starts)
			if err != nil {
				return 0, err
			}
			if ser.StepsPerSec > b {
				b = ser.StepsPerSec
			}
		}
		return b, nil
	}
	off, err := best(false)
	if err != nil {
		return nil, err
	}
	on, err := best(true)
	if err != nil {
		return nil, err
	}
	row := &ObsOverheadRow{Workload: "hubskew", Kernel: "auto", Procs: procs, StepsPerSecOn: on, StepsPerSecOff: off}
	if off > 0 {
		row.OverheadPct = (off - on) / off * 100
	}
	return row, nil
}

// concurrentCell measures one (workload, kernel, procs, load) point on a
// fresh engine (the feeder mutates the graph, so cells must not share
// state). Sparse cells run with hub caches off — the pre-kernel locked
// baseline — while dense/auto cells enable them, so the sparse→dense
// delta prices the whole frontier-batched path: amortized locking plus
// lock-free view draws.
func concurrentCell(o *Options, g *graph.CSR, w *gen.Workload, workload, kernelName string, procs int, load float64, starts []graph.VertexID) (ConcurrentSeries, int, error) {
	kernel, err := walk.ParseKernelMode(kernelName)
	if err != nil {
		return ConcurrentSeries{}, 0, err
	}
	s, err := core.NewFromCSR(g, o.bingoConfig())
	if err != nil {
		return ConcurrentSeries{}, 0, err
	}
	e := concurrent.Wrap(s, concurrent.Config{})

	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	cfg := walk.Config{
		Length:  o.WalkLength,
		Starts:  starts,
		Workers: procs,
		Kernel:  kernel,
	}
	if kernel != walk.KernelSparse {
		cfg.Cache = &fabric.CacheSpec{}
	}

	// Prime the feed path before the clock starts: the first batch
	// applies outside the window (and outside the measured counters),
	// so the pacer never starts cold.
	next := 0
	if load > 0 {
		hi := feedBatch
		if hi > len(w.Updates) {
			hi = len(w.Updates)
		}
		if _, err := e.ApplyBatch(append([]graph.Update(nil), w.Updates[:hi]...)); err != nil {
			return ConcurrentSeries{}, 0, fmt.Errorf("prime: %w", err)
		}
		next = hi
	}

	var stepsDone, updatesDone atomic.Int64
	done := make(chan struct{})
	var feedErr error
	var feedMu sync.Mutex
	var feeder sync.WaitGroup
	if load > 0 {
		// The feed side gets procs applier goroutines: a lone applier
		// competing with procs walk workers for CPU and stripe write
		// locks starves far below the target share (readers re-acquire
		// faster than one writer can queue), which would let fast-reading
		// cells silently escape their update load. A dispatcher paces the
		// tape against steps walked and the appliers apply concurrently
		// (stripe locks make that safe; cross-batch reorder only turns
		// some deletes into counted no-ops).
		batches := make(chan []graph.Update, procs)
		for a := 0; a < procs; a++ {
			feeder.Add(1)
			go func() {
				defer feeder.Done()
				for batch := range batches {
					if _, err := e.ApplyBatch(batch); err != nil {
						feedMu.Lock()
						if feedErr == nil {
							feedErr = err
						}
						feedMu.Unlock()
						return
					}
					updatesDone.Add(int64(len(batch)))
				}
			}()
		}
		feeder.Add(1)
		go func() {
			defer feeder.Done()
			defer close(batches)
			ratio := load / (1 - load) // updates per walk step
			var dispatched int64
			for {
				select {
				case <-done:
					return
				default:
				}
				budget := int64(ratio*float64(stepsDone.Load())) - dispatched
				if budget < feedBatch {
					// Sleep rather than spin: a hot pacer would steal a
					// core from the walk rounds inside the measured
					// window and distort the load sweep.
					time.Sleep(100 * time.Microsecond)
					continue
				}
				// Dispatch the whole accrued budget before sleeping
				// again: a woken goroutine may not run again for
				// milliseconds when the walk workers saturate the cores.
				for budget >= feedBatch {
					hi := next + feedBatch
					if hi > len(w.Updates) {
						hi = len(w.Updates)
					}
					batch := append([]graph.Update(nil), w.Updates[next:hi]...)
					select {
					case batches <- batch:
					case <-done:
						return
					}
					dispatched += int64(len(batch))
					budget -= int64(len(batch))
					next = hi
					if next >= len(w.Updates) {
						next = 0 // cycle the tape; re-deletes are tolerated
					}
				}
			}
		}()
	}

	// Rounds run until the walk quota is met AND the minimum window has
	// elapsed — short cells otherwise end before the pacer's first sleep
	// cycle and record a dishonest zero load.
	start := time.Now()
	var walks int64
	for round := 0; ; round++ {
		if walks >= int64(o.MaxWalkers) && time.Since(start) >= o.MinWindow {
			break
		}
		cfg.Seed = o.Seed ^ 0xa11ce ^ uint64(round)*0x9e3779b9
		res := walk.DeepWalk(e, cfg)
		stepsDone.Add(res.Steps)
		walks += int64(res.Walkers)
	}
	close(done)
	// The feeder applies synchronously, so once it stops every counted
	// update has landed; charging its last mid-flight batch to the
	// window keeps updates/s and achieved load honest.
	feeder.Wait()
	elapsed := time.Since(start)
	steps := stepsDone.Load()
	updates := updatesDone.Load()
	if feedErr != nil {
		return ConcurrentSeries{}, 0, fmt.Errorf("feeder: %w", feedErr)
	}

	achieved := 0.0
	if steps+updates > 0 {
		achieved = float64(updates) / float64(steps+updates)
	}
	return ConcurrentSeries{
		Workload:        workload,
		Kernel:          kernel.String(),
		Procs:           procs,
		UpdateLoadPct:   load * 100,
		Walks:           walks,
		Steps:           steps,
		Updates:         updates,
		ElapsedSec:      elapsed.Seconds(),
		WalksPerSec:     float64(walks) / elapsed.Seconds(),
		StepsPerSec:     float64(steps) / elapsed.Seconds(),
		UpdatesPerSec:   float64(updates) / elapsed.Seconds(),
		AchievedLoadPct: achieved * 100,
	}, e.Stripes(), nil
}
