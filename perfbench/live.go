package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo"
)

// server is the serving surface both live workloads drive; the in-process
// ShardedLiveWalker and the TCP RemoteWalker both provide it.
type server interface {
	Query(start bingo.VertexID, length int) ([]bingo.VertexID, error)
	Feed(ups []bingo.Update) error
	Sync() error
	Stats() bingo.ShardedLiveStats
	Close() error
}

// liveShards is the shard count of both live workloads.
const liveShards = 2

// maxProblems caps how many failed checks of one kind a run lists.
const maxProblems = 5

// runLive serves the initial snapshot on liveShards shards, in process or
// through ServeRemote to in-process ServeShard daemons on loopback. It sets
// the session up cfg.setups times (each one a set-up sample; all but the
// last are closed again), then drives the last one for window with two
// load goroutines: an open-loop feeder that sends the tape in
// cfg.feedSize-update Feed calls at cfg.rate updates/s and calls Sync every
// cfg.syncPeriod, and a closed-loop client that calls Query from
// degree-drawn starts.
func runLive(in *inputs, cfg config, window time.Duration, traced, tcp bool) *outcome {
	o := newOutcome()
	walkers := max(1, runtime.GOMAXPROCS(0)/liveShards)
	var fleet *daemons
	if tcp {
		var err error
		if fleet, err = startDaemons(liveShards, cfg.setups, walkers); err != nil {
			o.fail("starting shard daemons: %v", err)
			return o
		}
	}
	serve := func(eng *bingo.Engine) (server, error) {
		if tcp {
			return eng.ServeRemote(fleet.addrs, bingo.RemoteOptions{Seed: cfg.seed})
		}
		return eng.ServeSharded(liveShards, bingo.ShardedOptions{Seed: cfg.seed, WalkersPerShard: walkers})
	}

	var (
		setupS []float64
		eng    *bingo.Engine
		svc    server
	)
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		var err error
		if eng, err = bingo.FromEdges(in.initial); err != nil {
			o.fail("FromEdges: %v", err)
			return o
		}
		if svc, err = serve(eng); err != nil {
			o.fail("starting the serving session: %v", err)
			return o
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			o.call(svc.Close(), "Close")
		}
	}
	o.e2e["setup_s"] = median(setupS)
	o.e2e["memory_bytes"] = float64(eng.Memory())

	interval := time.Duration(float64(cfg.feedSize) / cfg.rate * float64(time.Second))
	feeds := int(window / interval)
	syncEvery := max(1, int(cfg.syncPeriod/interval))
	if feeds*cfg.feedSize > len(in.tape) {
		o.fail("the tape holds %d updates, %v at %v updates/s needs %d", len(in.tape), window, cfg.rate, feeds*cfg.feedSize)
		return o
	}

	var before layerReading
	if traced {
		before = readLayers()
	}
	var (
		fed  atomic.Int64
		stop atomic.Bool
		cl   client
		wg   sync.WaitGroup
	)
	book := newEdgeBook(in.initial, in.tape)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl.run(svc, in, book, cfg, &fed, &stop)
	}()

	// A Feed is timed from the call (update_*) and from when it was due
	// (gen.feed_from_due_ms); a Sync from when it was due (fresh_*).
	var feedCallUs, feedDueMs, freshMs []float64
	start := time.Now()
	late := openLoop(realClock{}, start, feeds, interval, func(k int, due time.Time) {
		batch := in.tape[k*cfg.feedSize : (k+1)*cfg.feedSize]
		fed.Add(int64(len(batch)))
		t := time.Now()
		err := svc.Feed(batch)
		end := time.Now()
		o.call(err, "Feed")
		feedCallUs = append(feedCallUs, float64(end.Sub(t))/1e3)
		feedDueMs = append(feedDueMs, float64(end.Sub(due))/1e6)
		if (k+1)%syncEvery == 0 {
			err := svc.Sync()
			o.call(err, "Sync")
			freshMs = append(freshMs, float64(time.Since(due))/1e6)
		}
	})
	feedEnd := time.Now()
	stop.Store(true)
	wg.Wait()
	o.call(svc.Sync(), "final Sync")
	jobEnd := time.Now()

	o.attempted += cl.attempted
	o.failed += cl.failed
	if o.firstErr == nil {
		o.firstErr = cl.firstErr
	}
	o.problems = append(o.problems, cl.problems...)
	st := svc.Stats()
	if err := checkIngest(st, fed.Load()); err != nil {
		o.problem("%v", err)
	}
	var lateMax time.Duration
	for _, l := range late {
		lateMax = max(lateMax, l)
	}
	if lateMax > cfg.maxLate {
		o.problem("generator fell behind: a feed started %v after it was due (limit %v)", lateMax, cfg.maxLate)
	}

	queries := float64(len(cl.latMs))
	fillLatencies(o, feedCallUs, cl.latMs, freshMs)
	o.e2e["job_s"] = jobEnd.Sub(start).Seconds()
	o.e2e["queries_per_s"] = queries / cl.elapsed.Seconds()
	o.e2e["heap_bytes"] = heapInuse()
	o.note("%s: %d feeds of %d updates every %v, Sync every %d feeds (%d barrier samples), %d queries, max lateness %v",
		cfg.workload, feeds, cfg.feedSize, interval, syncEvery, len(freshMs), len(cl.latMs), lateMax)

	if traced {
		fillLayers(o.layer, readLayers().delta(before), queries, queries)
		es := eng.Stats()
		o.layer["core.groups.dense"] = float64(es.DenseGroups)
		o.layer["core.groups.one"] = float64(es.OneElementGroups)
		o.layer["core.groups.sparse"] = float64(es.SparseGroups)
		o.layer["core.groups.regular"] = float64(es.RegularGroups)
		o.layer["core.memory_bytes.start"] = float64(es.Memory)
		o.layer["walk.hops_per_query"] = ratio(float64(st.Steps), float64(st.Queries))
		o.layer["walk.transfer_ratio"] = st.TransferRatio()
		o.layer["walk.cache.local_hit_rate"] = ratio(float64(st.Cache.LocalHits), float64(st.Steps))
		o.layer["walk.cache.remote_hits"] = float64(st.Cache.RemoteHits)
		o.layer["walk.cache.stale"] = float64(st.Cache.LocalStale + st.Cache.RemoteStale)
		fd := percentiles(feedDueMs, 50, 99)
		o.layer["gen.feed_from_due_ms.p50"], o.layer["gen.feed_from_due_ms.p99"] = fd[0], fd[1]
		o.layer["walk.credit_stall_s"] = st.Backpressure.Stalled.Seconds()
		o.layer["walk.shard_step_skew"] = stepSkew(st.ShardSteps)
		o.layer["gen.late_max_ms"] = float64(lateMax) / 1e6
		o.layer["gen.offered_updates_per_s"] = cfg.rate
		o.layer["gen.achieved_updates_per_s"] = float64(fed.Load()) / feedEnd.Sub(start).Seconds()
	}

	o.call(svc.Close(), "Close")
	if fleet != nil {
		if err := fleet.wait(); err != nil {
			o.problem("shard daemon: %v", err)
		}
	}
	return o
}

// stepSkew is the busiest shard's walk steps over the idlest's (0 when a
// shard took none).
func stepSkew(steps []int64) float64 {
	if len(steps) == 0 {
		return 0
	}
	lo, hi := steps[0], steps[0]
	for _, s := range steps {
		lo, hi = min(lo, s), max(hi, s)
	}
	return ratio(float64(hi), float64(lo))
}

// client is the closed-loop query client of a live workload: it sends its
// next Query only when the previous one has returned, and checks each
// served path against the updates fed so far.
type client struct {
	latMs             []float64
	elapsed           time.Duration
	attempted, failed int64
	firstErr          error
	problems          []string
}

func (c *client) run(svc server, in *inputs, book *edgeBook, cfg config, fed *atomic.Int64, stop *atomic.Bool) {
	r := bingo.NewRand(cfg.seed ^ 0xc1e47)
	start := time.Now()
	for !stop.Load() {
		s := in.starts.pick(r)
		t := time.Now()
		path, err := svc.Query(s, cfg.length)
		d := time.Since(t)
		c.attempted++
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("Query: %w", err)
			}
			continue
		}
		c.latMs = append(c.latMs, float64(d)/1e6)
		if err := book.checkPath(s, cfg.length, path, int(fed.Load())); err != nil && len(c.problems) < maxProblems {
			c.problems = append(c.problems, err.Error())
		}
	}
	c.elapsed = time.Since(start)
}

// daemons are in-process ServeShard daemons listening on loopback.
type daemons struct {
	addrs []string
	wg    sync.WaitGroup
	errs  []error
}

// startDaemons starts n shard daemons on 127.0.0.1:0, each serving exactly
// sessions coordinator sessions before it returns, and waits until all of
// them listen.
func startDaemons(n, sessions, walkers int) (*daemons, error) {
	d := &daemons{addrs: make([]string, n), errs: make([]error, n)}
	type up struct {
		shard int
		addr  string
		err   error
	}
	ready := make(chan up, n) // one message per daemon: its address or its failure
	for i := 0; i < n; i++ {
		d.wg.Add(1)
		go func(i int) {
			defer d.wg.Done()
			listening := false
			_, err := bingo.ServeShard("127.0.0.1:0", i, n, bingo.ShardServeOptions{
				Walkers:  walkers,
				Sessions: sessions,
				OnListen: func(addr string) {
					listening = true
					ready <- up{shard: i, addr: addr}
				},
			})
			d.errs[i] = err
			if !listening {
				ready <- up{shard: i, err: err}
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		u := <-ready
		if u.err != nil {
			return nil, fmt.Errorf("shard %d: %w", u.shard, u.err)
		}
		d.addrs[u.shard] = u.addr
	}
	return d, nil
}

// wait blocks until every daemon has served its sessions and returns the
// first daemon error.
func (d *daemons) wait() error {
	d.wg.Wait()
	for i, err := range d.errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
