package walk

import (
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// BenchmarkLiveQuery serves the same walk-while-ingest load through the
// two in-process front ends: LiveService's walker pool ("pool", 2 pool
// walkers) and a 1-shard ShardedLiveService ("oneshard", crew 2: the
// coordinator, fabric and shard node a single engine does not need).
// Four closed-loop clients call Query(·, 80) on AM at scale 0.1 while a
// feeder applies 25 updates every 5 ms. It reports queries/s and the
// per-query p50; EXPERIMENTS.md records why the gap keeps LiveService.
func BenchmarkLiveQuery(b *testing.B) {
	const (
		clients   = 4
		length    = 80
		feedBatch = 25
		feedEvery = 5 * time.Millisecond
	)
	d, err := gen.DatasetByAbbr("AM")
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Generate(0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	w, err := gen.BuildWorkload(g, gen.UpdMixed, feedBatch, 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := w.Initial.NumVertices()
	for _, mode := range []string{"pool", "oneshard"} {
		b.Run(mode, func(b *testing.B) {
			s, err := core.NewFromCSR(w.Initial, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			e := concurrent.Wrap(s, concurrent.Config{})
			var svc interface {
				Query(graph.VertexID, int) ([]graph.VertexID, error)
				Feed([]graph.Update) error
				Close() error
			}
			if mode == "pool" {
				svc = NewLiveService(e, LiveConfig{Walkers: 2, WalkLength: length, Seed: 1})
			} else if svc, err = NewShardedLiveService([]LiveEngine{e}, NewShardPlan(n, 1), ShardedLiveConfig{WalkersPerShard: 2, WalkLength: length, Seed: 1}); err != nil {
				b.Fatal(err)
			}
			defer svc.Close()

			stop := make(chan struct{})
			var feeder sync.WaitGroup
			feeder.Add(1)
			go func() {
				defer feeder.Done()
				t := time.NewTicker(feedEvery)
				defer t.Stop()
				for _, batch := range w.Batches() {
					select {
					case <-stop:
						return
					case <-t.C:
					}
					if err := svc.Feed(batch); err != nil {
						b.Error(err)
						return
					}
				}
			}()

			lat := make([][]time.Duration, clients)
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					r := xrand.New(uint64(c) + 1)
					for q := c; q < b.N; q += clients {
						t0 := time.Now()
						if _, err := svc.Query(graph.VertexID(r.Intn(n)), length); err != nil {
							b.Error(err)
							return
						}
						lat[c] = append(lat[c], time.Since(t0))
					}
				}(c)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			close(stop)
			feeder.Wait()

			all := slices.Concat(lat...)
			slices.Sort(all)
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
			if len(all) > 0 {
				b.ReportMetric(float64(all[len(all)/2])/1e3, "p50-µs")
			}
		})
	}
}
