// The standing-walk-corpus differential harness: a corpus maintained
// under the hub-churn tape (delete/reinsert and bias-rewrite storms on
// the vertices most standing walks pass through) must, once the feed
// quiesces and the final refresh drains, be indistinguishable from
// fresh walks on the final graph — a ≥120k-draw chi-square of the
// corpus's hub transitions against a sequential replay's exact
// probabilities, on the in-process fabric AND over loopback tcpgob.
// Plus the coalescing/credit regression: hub-targeted churn must
// collapse into per-walk resamples (not one per event × walk) and the
// touch queue must stay inside its credit window. Run with -race; the
// refresh loop racing feeders and queries is the thing under test.
package walk_test

import (
	"sync"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/stats"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

const (
	cdChurn    = 8000 // hub-skewed growth+churn events streamed through the corpus
	cdWalksK   = 4    // corpus walks per vertex
	cdLength   = 80   // standing walk length
	cdWriters  = 4
	cdMinDraws = 120000 // chi-square floor across all hub transitions
)

// newCorpusBackend builds an empty sharded serving runtime on the chosen
// transport for the corpus to ride: the in-process fabric, or loopback
// tcpgob shard nodes speaking the daemon protocol.
func newCorpusBackend(t *testing.T, transport string) *walk.ShardedLiveService {
	t.Helper()
	plan := walk.NewShardPlan(hcVerts, hcShards)
	cfg := walk.ShardedLiveConfig{WalkersPerShard: 2, WalkLength: cdLength, Seed: 0x0FF1CE}
	switch transport {
	case "inproc":
		engines, _ := newShardEngines(t, plan, hcVerts)
		svc, err := walk.NewShardedLiveService(engines, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	case "tcpgob":
		addrs := make([]string, hcShards)
		for i := 0; i < hcShards; i++ {
			l, err := tcpgob.Listen("127.0.0.1:0", i, hcShards)
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = l.Addr().String()
			go func(i int, l *tcpgob.Listener) {
				defer l.Close()
				sc, hello, err := l.Accept()
				if err != nil {
					return
				}
				e, err := concurrent.New(hello.NumVertices, core.DefaultConfig(), concurrent.Config{})
				if err != nil {
					sc.Close()
					return
				}
				nodePlan := walk.ShardPlan{Shards: hello.Shards, RangeSize: hello.RangeSize}
				walk.RunShardNode(e, nodePlan, i, sc, 2, hello.Cache, walk.KernelAuto)
			}(i, l)
		}
		port, err := tcpgob.Dial(addrs, fabric.Hello{RangeSize: plan.RangeSize, NumVertices: hcVerts})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := walk.NewShardedLiveServiceOver(port, plan, hcVerts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	default:
		t.Fatalf("unknown transport %q", transport)
		return nil
	}
}

func TestCorpusDifferentialInproc(t *testing.T) { testCorpusDifferential(t, "inproc") }
func TestCorpusDifferentialTCP(t *testing.T)    { testCorpusDifferential(t, "tcpgob") }

func testCorpusDifferential(t *testing.T, transport string) {
	build, churn := buildHubTape(0xBE7A, cdChurn)
	tape := append(append([]graph.Update(nil), build...), churn...)
	hubs := hcHubIDs()

	backend := newCorpusBackend(t, transport)
	// Phase A — build: land the hub topology before the corpus grows, so
	// the standing walks start on the real graph.
	if err := backend.Feed(append([]graph.Update(nil), build...)); err != nil {
		t.Fatal(err)
	}
	if err := backend.Sync(); err != nil {
		t.Fatalf("Sync after build: %v", err)
	}
	corpus, err := walk.NewShardedCorpusService(backend, hcVerts, walk.CorpusConfig{
		WalksPerVertex: cdWalksK,
		WalkLength:     cdLength,
		Seed:           0xC0DE,
		// A wide coalescing window: the whole churn burst should collapse
		// into few resample cycles (this is also what keeps the tcp
		// variant's regrow round-trips affordable under -race).
		RefreshInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase B — churn through the corpus feed, partitioned by source so
	// per-source order holds, with corpus readers hammering the hubs
	// concurrently (served slices race the refresh loop's installs; -race
	// watches).
	parts := make([][]graph.Update, cdWriters)
	for _, up := range churn {
		w := int(up.Src) % cdWriters
		parts[w] = append(parts[w], up)
	}
	done := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < cdWriters; w++ {
		writers.Add(1)
		go func(part []graph.Update) {
			defer writers.Done()
			const chunk = 64
			for lo := 0; lo < len(part); lo += chunk {
				hi := lo + chunk
				if hi > len(part) {
					hi = len(part)
				}
				if err := corpus.Feed(part[lo:hi]); err != nil {
					t.Errorf("Feed: %v", err)
					return
				}
			}
		}(parts[w])
	}
	var readers sync.WaitGroup
	for q := 0; q < 4; q++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			r := xrand.New(seed)
			n := 0
			for {
				if n >= 64 {
					select {
					case <-done:
						return
					default:
					}
				}
				start := hubs[r.Intn(len(hubs))]
				path, err := corpus.Query(start, cdLength)
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if len(path) == 0 || path[0] != start {
					t.Errorf("path %v does not begin at %d", path, start)
					return
				}
				n++
			}
		}(0xD00D + uint64(q))
	}
	writers.Wait()
	close(done)
	readers.Wait()

	// Phase C — quiesce: the final refresh must incorporate every event,
	// with the applied-stamp evidence agreeing with the fed watermark.
	if err := corpus.Sync(); err != nil {
		t.Fatalf("Sync after churn: %v", err)
	}
	cs := corpus.Stats()
	if cs.CorpusWatermark != cs.FedEvents {
		t.Fatalf("corpus watermark %d has not caught the fed watermark %d after Sync", cs.CorpusWatermark, cs.FedEvents)
	}
	if cs.FedEvents != int64(len(churn)) {
		t.Fatalf("fed watermark %d, want %d churn events", cs.FedEvents, len(churn))
	}
	if cs.AppliedStamp != int64(len(tape)) {
		t.Fatalf("backend applied stamp %d, want %d (build + churn)", cs.AppliedStamp, len(tape))
	}
	if cs.Resamples == 0 || cs.ResampledSteps == 0 {
		t.Fatalf("hub churn triggered no resampling (stats %+v) — the index or touch path is dead", cs)
	}
	if cs.Pending != 0 {
		t.Fatalf("%d touch events still outstanding after Sync", cs.Pending)
	}

	// The fallback rung stays live: a query beyond the standing length
	// must be served fresh through the backend.
	if path, err := corpus.Query(hubs[0], cdLength+5); err != nil || len(path) == 0 {
		t.Fatalf("over-length fallback query: path %v, err %v", path, err)
	}
	if corpus.Stats().Fallbacks == 0 {
		t.Fatal("over-length query did not take the fresh-walk fallback")
	}

	// Phase D — extract the quiescent corpus: K slices per vertex (the
	// rotation cycles through all K standing walks) and tally every
	// transition out of a hub. After the final drain every corpus step is
	// a draw from the final graph: any vertex whose out-distribution
	// changed was touched, and a touch truncates every walk at its
	// earliest visit and regrows the suffix — so hub transitions are
	// i.i.d. conditional draws a chi-square can test against the replay's
	// exact probabilities (the distribution fresh walks sample from).
	isHub := map[graph.VertexID]bool{}
	for _, h := range hubs {
		isHub[h] = true
	}
	served := cs.CorpusServed
	observedBy := map[graph.VertexID]map[graph.VertexID]int64{}
	for _, h := range hubs {
		observedBy[h] = map[graph.VertexID]int64{}
	}
	var draws int64
	for v := 0; v < hcVerts; v++ {
		for k := 0; k < cdWalksK; k++ {
			path, err := corpus.Query(graph.VertexID(v), cdLength)
			if err != nil {
				t.Fatalf("extract %d/%d: %v", v, k, err)
			}
			if len(path) == 0 || path[0] != graph.VertexID(v) {
				t.Fatalf("extract %d/%d: path %v", v, k, path)
			}
			for i := 0; i+1 < len(path); i++ {
				if isHub[path[i]] {
					observedBy[path[i]][path[i+1]]++
					draws++
				}
			}
		}
	}
	cs = corpus.Stats()
	if got := cs.CorpusServed - served; got != int64(hcVerts*cdWalksK) {
		t.Fatalf("extraction was served %d corpus slices, want %d — quiescent queries fell back", got, hcVerts*cdWalksK)
	}
	if draws < cdMinDraws {
		t.Fatalf("only %d hub-transition draws in the corpus, want >= %d", draws, cdMinDraws)
	}

	// Sequential ground truth: the whole tape replayed in order.
	seq, err := core.New(hcVerts, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.ApplyUpdatesStreaming(append([]graph.Update(nil), tape...)); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	for _, u := range hubs {
		probByDst := map[graph.VertexID]float64{}
		for slot, p := range seq.VertexProbabilities(u) {
			probByDst[seq.Neighbor(u, slot)] += p
		}
		dsts := make([]graph.VertexID, 0, len(probByDst))
		for d := range probByDst {
			dsts = append(dsts, d)
		}
		probs := make([]float64, 0, len(dsts))
		observed := make([]int64, 0, len(dsts))
		var seen int64
		for d, n := range observedBy[u] {
			if _, live := probByDst[d]; !live {
				t.Fatalf("hub %d: corpus steps to %d, not a live neighbor of the final graph", u, d)
			}
			seen += n
		}
		for d, p := range probByDst {
			probs = append(probs, p)
			observed = append(observed, observedBy[u][d])
		}
		if seen < 1000 {
			t.Fatalf("hub %d: only %d corpus transitions — the funnel topology is broken", u, seen)
		}
		stat, p, err := stats.ChiSquareGOF(observed, probs, 5)
		if err != nil {
			t.Fatalf("hub %d: chi-square: %v", u, err)
		}
		if p < 1e-4 {
			t.Errorf("hub %d: chi-square stat %.2f p=%.2e over %d draws — maintained corpus diverges from fresh walks on the final graph", u, stat, p, seen)
		}
	}
	t.Logf("%s: %d hub draws, %d resamples (%d steps vs %d full-walk-equivalent, amplification %.4f), %d refreshes, max lag %dms",
		transport, draws, cs.Resamples, cs.ResampledSteps, cs.FullWalkSteps, cs.Amplification(), cs.Refreshes, cs.RefreshLagMs)

	if err := corpus.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Feed after Close surfaces closure (ErrLiveClosed from the local
	// queue, or the backend's own session-closed error on tcpgob).
	if err := corpus.Feed([]graph.Update{{Op: graph.OpInsert, Src: 1, Dst: 2, Bias: 1}}); err == nil {
		t.Fatal("Feed after Close returned nil")
	}
}

// TestCorpusCoalescingCredit is the satellite regression: delete/reinsert
// hub churn must coalesce — each dirty walk resampled once per refresh
// from its minimum dirty position, however many events landed — and the
// touch queue must honor its credit window, including the oversized-batch
// admission rule, instead of growing without bound.
func TestCorpusCoalescingCredit(t *testing.T) {
	const (
		verts  = 96
		hub    = 7
		events = 2000
		window = 64
	)
	e, err := concurrent.New(verts, core.DefaultConfig(), concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A funnel: every vertex points at the hub and one ring neighbor; the
	// hub fans back out. Built on the engine before the corpus grows.
	var build []graph.Update
	for v := 0; v < verts; v++ {
		if v != hub {
			build = append(build, graph.Update{Op: graph.OpInsert, Src: graph.VertexID(v), Dst: hub, Bias: 3})
		}
		build = append(build, graph.Update{Op: graph.OpInsert, Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % verts), Bias: 1})
	}
	if err := e.ApplyUpdates(build); err != nil {
		t.Fatal(err)
	}
	corpus, err := walk.NewCorpusService(e, walk.CorpusConfig{
		WalksPerVertex:  2,
		WalkLength:      16,
		Seed:            11,
		CreditWindow:    window,
		RefreshInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Close()

	// Hub-targeted delete/reinsert churn, every event on the same source:
	// the touch map holds ONE entry however many events accumulate.
	for i := 0; i < events/2; i++ {
		batch := []graph.Update{
			{Op: graph.OpDelete, Src: hub, Dst: graph.VertexID((hub + 1) % verts)},
			{Op: graph.OpInsert, Src: hub, Dst: graph.VertexID((hub + 1) % verts), Bias: 1},
		}
		if err := corpus.Feed(batch); err != nil {
			t.Fatalf("Feed %d: %v", i, err)
		}
	}
	if err := corpus.Sync(); err != nil {
		t.Fatal(err)
	}
	cs := corpus.Stats()
	if cs.Pending != 0 {
		t.Fatalf("%d outstanding touch events after Sync", cs.Pending)
	}
	if cs.MaxOutstanding > window {
		t.Fatalf("max outstanding %d exceeded the credit window %d — backpressure is not capping the queue", cs.MaxOutstanding, window)
	}
	// Coalescing: the un-coalesced cost is one resample per event per
	// walk visiting the hub (~ events × walks). The walkID dedupe bounds
	// resamples by refreshes × walks, and the event coalescing keeps
	// refreshes a small fraction of events.
	if cs.Resamples > cs.Refreshes*cs.Walks {
		t.Fatalf("%d resamples over %d refreshes × %d walks — per-walk dedupe is not coalescing", cs.Resamples, cs.Refreshes, cs.Walks)
	}
	naive := int64(events) * cs.Walks
	if cs.Resamples*10 >= naive {
		t.Fatalf("%d resamples vs %d naive per-event resamples — coalescing is not amortizing hub churn", cs.Resamples, naive)
	}
	if cs.FullWalkSteps <= cs.ResampledSteps {
		t.Fatalf("resampled %d steps vs full-walk-equivalent %d — amplification >= 1 under hub churn", cs.ResampledSteps, cs.FullWalkSteps)
	}

	// Oversized-batch admission: a batch wider than the whole window must
	// be admitted once the queue drains (the router's waitCredits rule),
	// not deadlock Feed forever.
	big := make([]graph.Update, window*3)
	for i := range big {
		big[i] = graph.Update{Op: graph.OpInsert, Src: hub, Dst: graph.VertexID(i % verts), Bias: 1}
	}
	errc := make(chan error, 1)
	go func() { errc <- corpus.Feed(big) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("oversized Feed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("oversized batch deadlocked against the credit window")
	}
	if err := corpus.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := corpus.Stats().MaxOutstanding; got < int64(len(big)) {
		t.Fatalf("max outstanding %d did not record the admitted oversized batch (%d)", got, len(big))
	}
}
