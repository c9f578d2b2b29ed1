package walk

import (
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
)

// RemoteService drives a sharded serving session whose shard nodes live
// behind a fabric the coordinator cannot see into — in practice N
// `bingowalk -shard-serve` daemons reached over the tcpgob fabric. It is
// the exact coordinator ShardedLiveService runs in-process; only the port
// differs. One machine's lock domains become N processes' address spaces,
// and the API stays Query/Feed/Sync/DeepWalk.
//
// Because the shards are remote, ingest-side counters (Updates, Dropped)
// and the grown vertex space are observed through barrier acks: they are
// exact as of the last Sync (every ack carries cumulative tallies), not
// continuously live the way the in-process service's are.
//
// Backpressure: beyond the coordinator's feed queue, a per-shard credit
// window bounds the update events in flight toward each daemon (routed
// but not yet applied — the daemons credit consumed events back on the
// event stream). A feeder that outruns the daemons' apply rate blocks in
// Feed instead of growing daemon memory; ShardedLiveConfig.CreditWindow
// sizes the window.
type RemoteService struct {
	coord *coordinator
	verts int // construction-time vertex space (acks can only widen it)
}

// NewRemoteService starts a coordinator over the given fabric port.
// numVertices is the construction-time vertex space (the daemons size
// their engines from the same session Hello); the plan must match the
// geometry announced to the daemons. The service takes ownership of the
// port: Close ends the session.
func NewRemoteService(port fabric.CoordPort, plan ShardPlan, numVertices int, cfg ShardedLiveConfig) (*RemoteService, error) {
	cfg = cfg.withDefaults(plan.Shards)
	if err := validateReplication(plan, cfg); err != nil {
		return nil, err
	}
	s := &RemoteService{
		coord: newCoordinator(port, plan, cfg),
		verts: numVertices,
	}
	s.coord.noteVerts(int64(numVertices))
	return s, nil
}

// Shards returns the partition count.
func (s *RemoteService) Shards() int { return s.coord.plan.Shards }

// Plan returns the construction-time partition geometry.
func (s *RemoteService) Plan() ShardPlan { return s.coord.plan }

// LivePlan returns the live ownership plan (rebalancing overlay
// included).
func (s *RemoteService) LivePlan() ShardPlan { return s.coord.planNow() }

// NumVertices returns the widest vertex space observed across the shard
// daemons (exact as of the last Sync; at least the construction-time
// space).
func (s *RemoteService) NumVertices() int {
	n := s.verts
	s.coord.mu.Lock()
	for _, a := range s.coord.acks {
		if a.Vertices > n {
			n = a.Vertices
		}
	}
	s.coord.mu.Unlock()
	return n
}

// Query walks from start for up to length steps (<= 0 selects the
// configured default) across the shard daemons and returns the visited
// path, start included.
func (s *RemoteService) Query(start graph.VertexID, length int) ([]graph.VertexID, error) {
	return s.coord.Query(start, length)
}

// Feed enqueues a batch for routed ingestion across the daemons
// (backpressure via the feed queue; ErrLiveClosed after Close).
func (s *RemoteService) Feed(ups []graph.Update) error {
	return s.coord.Feed(ups)
}

// bootstrapChunk bounds one bootstrap batch (updates per feed element):
// large enough to amortize framing, small enough that the credit window
// still paces the stream.
const bootstrapChunk = 1 << 16

// Bootstrap ships a snapshot to the daemons through the fabric itself:
// each holder's rows travel as dedicated snapshot (Boot) batches —
// fanned to every replica, credit-paced, but excluded from the routed
// ledger and the daemons' update tallies, so a bootstrapped session's
// Updates counter reflects feed events alone. A confirming barrier makes
// the call return only once every daemon holds exactly the rows it must.
// Shared by Engine.ServeRemote, the CLI -connect path, and the bench tcp
// transport so bootstrap semantics cannot drift between them.
func (s *RemoteService) Bootstrap(g *graph.CSR) error {
	s.coord.noteVerts(int64(g.NumVertices()))
	// Partition with replication stripped: each row must reach the router
	// exactly once — the router's boot path itself fans every update out
	// to all of its block's holders (PartitionCSR would otherwise
	// duplicate the rows a second time).
	base := s.coord.plan
	base.Replicas = 1
	for _, part := range base.PartitionCSR(g) {
		for len(part) > 0 {
			n := len(part)
			if n > bootstrapChunk {
				n = bootstrapChunk
			}
			if err := s.coord.feedBoot(part[:n]); err != nil {
				return err
			}
			part = part[n:]
		}
	}
	return s.Sync()
}

// Sync blocks until every feed batch accepted before the call has been
// applied (or dropped) on its daemons, then reports the first ingest
// error observed anywhere. It also refreshes the ack-carried tallies
// Stats and NumVertices read.
func (s *RemoteService) Sync() error { return s.coord.Sync() }

// AppliedStamp is the sum of the daemons' cumulative applied-update
// stamps from the latest barrier acks — the watermark evidence the
// standing-walk corpus's bounded-staleness check reads. Exact as of the
// last Sync.
func (s *RemoteService) AppliedStamp() int64 { return s.coord.appliedStamp() }

// DeepWalk runs a bulk first-order walk across the shard daemons while
// the feed keeps ingesting. It returns ErrFabricDown if any walker failed
// or the session ended mid-run.
func (s *RemoteService) DeepWalk(cfg Config) (Result, TransferStats, error) {
	return s.coord.DeepWalk(cfg, s.NumVertices())
}

// DumpEdges reads back every daemon's live edge multiset (indexed by
// shard), consistent with all feed batches accepted before the call —
// the verification path the loopback differential harness uses to match
// a distributed session against a sequential replay edge-for-edge.
func (s *RemoteService) DumpEdges() ([][]graph.Edge, error) {
	return s.coord.DumpEdges()
}

// Stats snapshots the service counters. Walk-side counters accumulate as
// walkers retire; Updates and Dropped are exact as of the last Sync.
func (s *RemoteService) Stats() ShardedLiveStats {
	st := ShardedLiveStats{
		Queries:    s.coord.queries.Load(),
		Steps:      s.coord.steps.Load(),
		Batches:    s.coord.batches.Load(),
		Transfers:  s.coord.transfers.Load(),
		Local:      s.coord.local.Load(),
		ShardSteps: make([]int64, s.coord.plan.Shards),
	}
	s.coord.mu.Lock()
	for i, a := range s.coord.acks {
		st.Updates += a.Updates
		st.Dropped += a.Dropped
		st.ShardSteps[i] = a.Steps
		st.Cache.Add(a.Cache)
	}
	s.coord.mu.Unlock()
	st.Rebalance = s.coord.rebalanceTallies()
	st.Failover = s.coord.failoverTallies()
	st.Backpressure.Window = s.coord.window
	st.Backpressure.MaxOutstanding, st.Backpressure.Stalled = s.coord.backpressureTallies()
	return st
}

// NewRemoteReader attaches a read-coordinator over an already-dialed
// read port (in practice tcpgob.DialReader against the same daemons a
// RemoteService write session drives). The write session may live in a
// different process entirely; the reader learns its geometry, plan, and
// watermarks from the broadcast stream alone.
func NewRemoteReader(port fabric.ReadPort, cfg ReaderConfig) (*ReaderService, error) {
	return NewReaderService(port, cfg)
}

// Err returns the first error observed through barrier acks (nil if
// none).
func (s *RemoteService) Err() error { return s.coord.Err() }

// Close drains the feed, waits for in-flight walkers, ends the session
// (the daemons drain, report, and exit), and returns the first observed
// error. Idempotent.
func (s *RemoteService) Close() error { return s.coord.Close() }
