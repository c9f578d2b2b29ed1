package walk

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
)

// fakePort is a scripted fabric endpoint for the walker-table tests. It
// satisfies both fabric.CoordPort and fabric.ReadPort: the test pushes
// events, and every launch is recorded and then swallowed unless serve
// says otherwise. A served walker retires at once after walking the
// chain v→v+1 for its remaining hops.
type fakePort struct {
	shards int
	serve  func(dst int) bool

	mu       sync.Mutex
	closed   bool
	events   chan fabric.Event
	launched []*fabric.Walker
	dsts     []int
	grew     *sync.Cond
}

func newFakePort(shards int, serve func(dst int) bool) *fakePort {
	// The buffer exceeds any test's event count, so sends under mu never
	// block.
	p := &fakePort{shards: shards, serve: serve, events: make(chan fabric.Event, 256)}
	p.grew = sync.NewCond(&p.mu)
	return p
}

func (p *fakePort) Shards() int { return p.shards }

func (p *fakePort) LaunchWalker(dst int, w *fabric.Walker) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.launched = append(p.launched, cloneWalker(w))
	p.dsts = append(p.dsts, dst)
	p.grew.Broadcast()
	if p.serve != nil && p.serve(dst) && !p.closed {
		done := cloneWalker(w)
		for ; done.Left > 0; done.Left-- {
			done.Cur++
			done.Steps++
			done.Local++
			if done.Record {
				done.Path = append(done.Path, done.Cur)
			}
		}
		p.events <- fabric.Event{Kind: fabric.EvRetire, Walker: done}
	}
	return nil
}

// push delivers one event unless the port has closed.
func (p *fakePort) push(ev fabric.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.events <- ev
	}
}

// waitLaunches blocks until at least n launches happened and returns
// copies of them with their destinations.
func (p *fakePort) waitLaunches(n int) ([]*fabric.Walker, []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.launched) < n {
		p.grew.Wait()
	}
	return append([]*fabric.Walker(nil), p.launched...), append([]int(nil), p.dsts...)
}

func (p *fakePort) PublishUpdates(int, fabric.Ingest) error    { return nil }
func (p *fakePort) PublishBarrier(fabric.Ingest) error         { return nil }
func (p *fakePort) PublishBroadcast(fabric.Broadcast) error    { return nil }
func (p *fakePort) RequestView(int, *fabric.ViewRequest) error { return nil }
func (p *fakePort) NextEvent() (fabric.Event, bool)            { ev, ok := <-p.events; return ev, ok }
func (p *fakePort) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.events)
	}
	return nil
}

// awaitErr waits for a call's result, failing the test instead of hanging
// when it never comes.
func awaitErr(t *testing.T, got <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-got:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still pending after 10s", what)
		return nil
	}
}

// TestRelaunchBudgetExhaustedFails: a walker lost in a dead daemon is
// relaunched on every dead-mask flip, each relaunch spending one reroute.
// Once the budget is spent the next sweep must fail the walker — its
// Query returns ErrFabricDown — instead of leaving it pending forever
// with every copy swallowed.
func TestRelaunchBudgetExhaustedFails(t *testing.T) {
	port := newFakePort(2, nil) // every launch is lost
	plan := NewShardPlan(16, 2)
	plan.Replicas = 2
	c := newCoordinator(port, plan, ShardedLiveConfig{}.withDefaults(plan.Shards))
	defer c.Close()
	defer port.Close()

	got := make(chan error, 1)
	go func() {
		_, err := c.Query(0, 4)
		got <- err
	}()
	port.waitLaunches(1)
	// A death and the failback after it (an empty graph primes at once)
	// each sweep the pending walkers: two reroutes per cycle, one cycle
	// more than the budget covers.
	for i := 0; i <= maxWalkerReroutes/2; i++ {
		port.push(fabric.Event{Kind: fabric.EvShardDown, Shard: 1})
		port.push(fabric.Event{Kind: fabric.EvShardUp, Shard: 1})
	}
	if err := awaitErr(t, got, "Query with a spent reroute budget"); !errors.Is(err, ErrFabricDown) {
		t.Fatalf("Query error = %v, want ErrFabricDown", err)
	}
	if n := c.failoverTallies().Relaunches; n != maxWalkerReroutes {
		t.Fatalf("relaunches = %d, want %d", n, maxWalkerReroutes)
	}
}

// TestReaderRelaunchesLostWalker: a reader's walker launched into a shard
// that then dies is relaunched from its spec when the broadcast carrying
// the dead-mask flip lands, and completes on the replica's owner.
func TestReaderRelaunchesLostWalker(t *testing.T) {
	port := newFakePort(2, func(dst int) bool { return dst == 1 }) // shard 0 swallows
	port.push(fabric.Event{Kind: fabric.EvBroadcast, Bcast: &fabric.Broadcast{Seq: 1, RangeSize: 8, Replicas: 2, Vertices: 16}})
	r, err := NewReaderService(port, ReaderConfig{Cache: fabric.CacheSpec{Off: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	type reply struct {
		path []graph.VertexID
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		p, err := r.Query(0, 3)
		got <- reply{p, err}
	}()
	if _, dsts := port.waitLaunches(1); dsts[0] != 0 {
		t.Fatalf("first launch went to shard %d, want the owner 0", dsts[0])
	}
	port.push(fabric.Event{Kind: fabric.EvBroadcast, Bcast: &fabric.Broadcast{Seq: 2, Epoch: 1, RangeSize: 8, Replicas: 2, DeadMask: 1, Vertices: 16}})
	select {
	case rep := <-got:
		if rep.err != nil {
			t.Fatalf("Query: %v", rep.err)
		}
		if want := []graph.VertexID{0, 1, 2, 3}; len(rep.path) != len(want) || rep.path[3] != want[3] {
			t.Fatalf("path %v, want %v", rep.path, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader Query still pending after its shard died")
	}
	if _, dsts := port.waitLaunches(2); dsts[1] != 1 {
		t.Fatalf("relaunch went to shard %d, want the replica 1", dsts[1])
	}
}

// TestWriteDeepWalkReportsLostWalkers: the write side's DeepWalk fails
// with ErrFabricDown when a walker retires Failed or the event stream
// ends mid-run, rather than returning a partial result as complete.
func TestWriteDeepWalkReportsLostWalkers(t *testing.T) {
	starts := []graph.VertexID{0, 1, 2, 3}
	for _, tc := range []struct {
		name string
		end  func(p *fakePort, ws []*fabric.Walker)
	}{
		{"failed retire", func(p *fakePort, ws []*fabric.Walker) {
			for i, w := range ws {
				w.Steps, w.Left, w.Failed = int64(w.Left), 0, i == 2
				p.push(fabric.Event{Kind: fabric.EvRetire, Walker: w})
			}
		}},
		{"stream ends", func(p *fakePort, ws []*fabric.Walker) {
			ws[0].Steps, ws[0].Left = int64(ws[0].Left), 0
			p.push(fabric.Event{Kind: fabric.EvRetire, Walker: ws[0]})
			p.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			port := newFakePort(2, nil)
			svc, err := NewRemoteService(port, NewShardPlan(8, 2), 8, ShardedLiveConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			got := make(chan error, 1)
			go func() {
				_, _, err := svc.DeepWalk(Config{Length: 4, Starts: starts, Seed: 1})
				got <- err
			}()
			ws, _ := port.waitLaunches(len(starts))
			tc.end(port, ws)
			if err := awaitErr(t, got, "DeepWalk"); !errors.Is(err, ErrFabricDown) {
				t.Fatalf("DeepWalk error = %v, want ErrFabricDown", err)
			}
		})
	}
}
