package walk

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// maxWalkerReroutes caps how many times one walker may be re-routed or
// relaunched across shard deaths before its session call fails — a
// backstop against relaunch loops when the fleet keeps churning.
const maxWalkerReroutes = 32

// rerouteBackoff is how long a walker bounced off a dead link waits
// before its next launch. The node that bounced it may not have applied
// the death flip yet and would hand it straight back to the dead shard;
// without a pause that ping-pong burns the whole reroute budget inside
// one stale-plan window. Growing with the count, the waits spread the
// budget over about half a second.
func rerouteBackoff(reroutes int) time.Duration {
	return time.Duration(reroutes) * time.Millisecond
}

// walkerTable is the walker half of a coordinator, shared by the write
// coordinator and every ReaderService: it launches walkers into the
// shard set and completes their callers from the retire stream.
//
// Its rules, identical on both sides:
//   - First retire wins. A walker may be running twice (relaunched after
//     a death while its original was in fact alive elsewhere); the first
//     retire resolves the entry and later ones are dropped.
//   - A Failed retire in a replicated session is a hand-off that hit a
//     dead link. The retire carries the walker's exact mid-walk state, so
//     it is re-routed (after rerouteBackoff) to whatever replica the
//     flipped plan names, while its reroute count stays under
//     maxWalkerReroutes; past that it resolves as failed.
//   - In replicated sessions every entry keeps a launch spec. On a
//     dead-mask flip relaunchPending launches a clone of each from its
//     spec, since the original may be lost inside the dead daemon. Each
//     sweep spends one reroute; a walker whose budget is spent resolves
//     as failed instead of waiting on a copy that may no longer exist.
type walkerTable struct {
	send func(dst int, w *fabric.Walker) error // the port's LaunchWalker
	plan func() ShardPlan                      // the live ownership plan
	// retired sees every walker resolved as retired or failed before its
	// caller does (not the nil resolutions of lost walkers).
	retired func(*fabric.Walker)

	idSeq atomic.Uint64

	// mu guards pending and the dead fence that refuses registrations
	// once the event stream has ended. inflight counts registered,
	// unresolved walkers (the write coordinator's Close waits on it).
	mu       sync.Mutex
	dead     bool
	pending  map[uint64]pendingWalker
	inflight sync.WaitGroup

	launches, reroutes, relaunches atomic.Int64
}

// pendingWalker is one walker awaiting its retire; spec is its launch
// state (replicated sessions only).
type pendingWalker struct {
	done completion
	spec *fabric.Walker
}

// completion receives a walker's resolution: the retired walker, or nil
// when it can never retire.
type completion interface{ resolved(*fabric.Walker) }

// walkerReply completes one query.
type walkerReply chan *fabric.Walker

func (r walkerReply) resolved(w *fabric.Walker) { r <- w }

func (t *walkerTable) init(send func(int, *fabric.Walker) error, plan func() ShardPlan, retired func(*fabric.Walker)) {
	t.send, t.plan, t.retired = send, plan, retired
	t.pending = map[uint64]pendingWalker{}
}

func (t *walkerTable) nextID() uint64 { return t.idSeq.Add(1) }

// register enters walker w before its launch, so no retire or death can
// fall between the two unseen. It fails with ErrFabricDown once the
// event stream has ended.
func (t *walkerTable) register(w *fabric.Walker, done completion) error {
	p := pendingWalker{done: done}
	if t.plan().Replicas > 1 {
		p.spec = cloneWalker(w)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return ErrFabricDown
	}
	t.inflight.Add(1)
	t.pending[w.ID] = p
	return nil
}

// launch sends a registered walker toward its vertex's current owner. In
// a replicated session a failed send is retried toward whatever replica
// the flipped plan names; otherwise the walker resolves with nil and the
// send error is returned.
func (t *walkerTable) launch(w *fabric.Walker) error {
	t.launches.Add(1)
	err := t.send(t.plan().Owner(w.Cur), w)
	if err == nil {
		return nil
	}
	if t.plan().Replicas > 1 {
		go t.relaunch(w)
		return nil
	}
	t.mu.Lock()
	p, still := t.pending[w.ID]
	delete(t.pending, w.ID)
	t.mu.Unlock()
	if still {
		t.resolve(p, nil)
	}
	return err
}

// start registers and launches one query walker; the returned channel
// yields its resolution (see awaitWalker).
func (t *walkerTable) start(w *fabric.Walker) (walkerReply, error) {
	reply := make(walkerReply, 1)
	if err := t.register(w, reply); err != nil {
		return nil, err
	}
	if err := t.launch(w); err != nil {
		return nil, err
	}
	return reply, nil
}

// awaitWalker blocks until a started walker resolves and maps a failed
// or lost walk to ErrFabricDown.
func awaitWalker(reply walkerReply) (*fabric.Walker, error) {
	w := <-reply
	if w == nil || w.Failed {
		return nil, ErrFabricDown
	}
	return w, nil
}

// resolve completes one entry already removed from pending.
func (t *walkerTable) resolve(p pendingWalker, w *fabric.Walker) {
	if w != nil {
		t.retired(w)
	}
	p.done.resolved(w)
	t.inflight.Done()
}

func (t *walkerTable) onRetire(w *fabric.Walker) {
	if w == nil {
		return
	}
	t.mu.Lock()
	p, ok := t.pending[w.ID]
	if !ok {
		// Duplicate retire (a relaunched walker whose original also
		// finished), or one arriving after failPending.
		t.mu.Unlock()
		return
	}
	if w.Failed && t.plan().Replicas > 1 && w.Reroutes < maxWalkerReroutes {
		t.mu.Unlock()
		w.Failed = false
		w.Reroutes++
		t.reroutes.Add(1)
		go func() {
			time.Sleep(rerouteBackoff(w.Reroutes))
			t.relaunch(w)
		}()
		return
	}
	delete(t.pending, w.ID)
	t.mu.Unlock()
	t.resolve(p, w)
}

// relaunch retries launching a walker toward its vertex's current owner
// until a live link accepts it — the plan flip races the launch, so
// early attempts may still name the dead shard. On giving up the walker
// resolves as failed.
func (t *walkerTable) relaunch(w *fabric.Walker) {
	for i := 0; i < 50; i++ {
		if err := t.send(t.plan().Owner(w.Cur), w); err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	w.Failed = true
	w.Reroutes = maxWalkerReroutes // no further re-route attempts
	t.onRetire(w)
}

// relaunchPending launches a clone of every pending walker from its
// stored spec (its original may be lost inside a dead daemon). Each
// clone spends one reroute; a walker whose budget is spent fails.
func (t *walkerTable) relaunchPending() {
	var clones []*fabric.Walker
	var spent []pendingWalker
	t.mu.Lock()
	for id, p := range t.pending {
		switch {
		case p.spec == nil:
		case p.spec.Reroutes >= maxWalkerReroutes:
			delete(t.pending, id)
			spent = append(spent, p)
		default:
			p.spec.Reroutes++
			clones = append(clones, cloneWalker(p.spec))
		}
	}
	t.mu.Unlock()
	for _, p := range spent {
		p.spec.Failed = true
		t.resolve(p, p.spec)
	}
	for _, w := range clones {
		t.relaunches.Add(1)
		go t.relaunch(w)
	}
}

// failPending resolves every pending walker with nil when the event
// stream ends and fences later registrations. It returns how many
// walkers it failed.
func (t *walkerTable) failPending() int {
	t.mu.Lock()
	t.dead = true
	pend := t.pending
	t.pending = map[uint64]pendingWalker{}
	t.mu.Unlock()
	for _, p := range pend {
		t.resolve(p, nil)
	}
	return len(pend)
}

// cloneWalker deep-copies a walker's launch state (Path is the only
// reference field).
func cloneWalker(w *fabric.Walker) *fabric.Walker {
	cp := *w
	cp.Path = append([]graph.VertexID(nil), w.Path...)
	return &cp
}

// bulkRun aggregates one DeepWalk invocation across its walkers.
type bulkRun struct {
	walkers                         int
	steps, transfers, local, remote atomic.Int64
	failed                          atomic.Bool
	visits                          *visitCounter
	wg                              sync.WaitGroup
}

// startBulk launches a bulk first-order walk: every start becomes a
// transferable walker with its own RNG stream. numVertices is the
// caller's view of the current vertex space (default start set and
// visit-tally sizing).
//
// Visit counting rides on walker paths: a CountVisits run makes every
// walker record its hops and the run folds them into the tally at
// retire, which is what lets the identical protocol cross a process
// boundary (shards share no counter). The cost is O(len(starts) ×
// Length) transient path memory across in-flight walkers — bound the
// start set for visit-counting runs over very large graphs.
func (t *walkerTable) startBulk(cfg Config, numVertices int) *bulkRun {
	cfg = cfg.withDefaults(numVertices)
	starts := startsOf(numVertices, cfg)
	run := &bulkRun{walkers: len(starts)}
	if cfg.CountVisits {
		run.visits = newVisitCounter(numVertices)
	}
	master := xrand.New(cfg.Seed)
	run.wg.Add(len(starts))
	for i, st := range starts {
		if run.visits != nil {
			run.visits.bump(st)
		}
		wk := &fabric.Walker{
			ID:     t.nextID(),
			Cur:    st,
			Left:   cfg.Length,
			Rng:    master.Split(uint64(i)).State(),
			Record: cfg.CountVisits,
		}
		if err := t.register(wk, run); err != nil {
			run.resolved(nil)
			continue
		}
		_ = t.launch(wk) // a failed launch resolves the walker itself
	}
	return run
}

func (run *bulkRun) resolved(w *fabric.Walker) {
	if w == nil || w.Failed {
		run.failed.Store(true)
	} else {
		run.steps.Add(w.Steps)
		run.transfers.Add(w.Transfers)
		run.local.Add(w.Local)
		run.remote.Add(w.Remote)
		if run.visits != nil {
			for _, v := range w.Path {
				run.visits.bump(v)
			}
		}
	}
	run.wg.Done()
}

// wait blocks until every walker of the run resolved. It fails with
// ErrFabricDown if any walker failed or the event stream ended mid-run,
// rather than passing a partial result off as a complete one.
func (run *bulkRun) wait() (Result, TransferStats, error) {
	run.wg.Wait()
	if run.failed.Load() {
		return Result{}, TransferStats{}, ErrFabricDown
	}
	res := Result{Walkers: run.walkers, Steps: run.steps.Load()}
	if run.visits != nil {
		res.Visits = run.visits.snapshot()
	}
	return res, TransferStats{Transfers: run.transfers.Load(), Local: run.local.Load(), Remote: run.remote.Load()}, nil
}
