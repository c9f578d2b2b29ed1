// Wire-format coverage for the shard fabric: every message class must
// round-trip through a length-prefixed gob frame unchanged — including
// float-bias updates and vertex IDs far beyond any construction-time
// space. The PR-2 bug class (state frozen to the initial vertex space)
// must not reappear at the wire boundary, so growth-path IDs up to the
// top of the uint32 range appear in every payload that carries vertices.
package tcpgob

import (
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// roundTrip pushes one frame through a fresh link pair over an in-memory
// pipe.
func roundTrip(t *testing.T, f *frame) *frame {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	l1, l2 := newLink(c1), newLink(c2)
	errc := make(chan error, 1)
	go func() { errc <- l1.write(f) }()
	got, err := l2.read()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	return got
}

func TestWalkerFrameRoundTrip(t *testing.T) {
	// A walker mid-flight on the growth path: IDs near the top of the
	// uint32 space, a live RNG stream, accumulated telemetry.
	r := xrand.New(77)
	r.Uint64() // advance so the state is not the seed-fresh one
	w := fabric.Walker{
		ID:        901,
		Cur:       4_294_967_290, // far beyond any construction-time space
		Left:      13,
		Rng:       r.State(),
		Record:    true,
		Path:      []graph.VertexID{3, 4_000_000_000, 4_294_967_290},
		Steps:     67,
		Transfers: 9,
		Local:     58,
	}
	got := roundTrip(t, &frame{Kind: kWalker, Walker: w})
	if got.Kind != kWalker || !reflect.DeepEqual(got.Walker, w) {
		t.Fatalf("walker round-trip: got %+v, want %+v", got.Walker, w)
	}
	// The resumed stream must continue draw-for-draw.
	want := xrand.FromState(w.Rng).Uint64()
	if have := xrand.FromState(got.Walker.Rng).Uint64(); have != want {
		t.Fatalf("RNG stream diverged across the wire: %d vs %d", have, want)
	}
}

func TestWalkerRecordSurvivesEmptyPath(t *testing.T) {
	// gob collapses empty and nil slices; the Record *flag* is what keeps
	// a visit-counting bulk walker recording after its first hand-off.
	w := fabric.Walker{ID: 1, Cur: 5, Left: 3, Record: true, Path: []graph.VertexID{}}
	got := roundTrip(t, &frame{Kind: kWalker, Walker: w})
	if !got.Walker.Record {
		t.Fatal("Record flag lost on a walker with an empty path")
	}
}

func TestUpdateBatchFrameRoundTrip(t *testing.T) {
	// Float-bias updates and growth-path IDs in one routed sub-batch.
	ups := []graph.Update{
		{Op: graph.OpInsert, Src: 0, Dst: 1, Bias: 1},
		{Op: graph.OpInsert, Src: 2_100_000_000, Dst: 4_294_967_295, Bias: 7, FBias: 0.625},
		{Op: graph.OpDelete, Src: 3_999_999_999, Dst: 12},
		{Op: graph.OpInsert, Src: 5, Dst: 6, Bias: 1 << 62, FBias: 0.001953125},
	}
	in := fabric.Ingest{Ups: ups, Watermarks: []int64{12, 0, 4_000_000_000_000}}
	got := roundTrip(t, &frame{Kind: kUpdates, Ingest: in})
	if got.Kind != kUpdates || !reflect.DeepEqual(got.Ingest, in) {
		t.Fatalf("update batch round-trip: got %+v, want %+v", got.Ingest, in)
	}
}

func TestBarrierAndAckFrameRoundTrip(t *testing.T) {
	in := fabric.Ingest{Barrier: 42, Dump: true, Watermarks: []int64{7, 9}}
	got := roundTrip(t, &frame{Kind: kBarrier, Ingest: in})
	if got.Kind != kBarrier || !reflect.DeepEqual(got.Ingest, in) {
		t.Fatalf("barrier round-trip: got %+v, want %+v", got.Ingest, in)
	}

	a := fabric.Ack{
		Shard:    3,
		Seq:      42,
		Updates:  10_000,
		Dropped:  2,
		Err:      "walk: zero bias",
		Vertices: 4_000_000_001, // a grown space, reported back
		Edges: []graph.Edge{
			{Src: 1, Dst: 4_294_967_294, Bias: 9},
			{Src: 2_500_000_000, Dst: 3, Bias: 1, FBias: 0.25},
		},
		Cache: fabric.CacheTallies{LocalHits: 100, RemoteHits: 7, ViewRequests: 3},
	}
	gotA := roundTrip(t, &frame{Kind: kAck, Ack: a})
	if gotA.Kind != kAck || !reflect.DeepEqual(gotA.Ack, a) {
		t.Fatalf("ack round-trip: got %+v, want %+v", gotA.Ack, a)
	}
}

func TestHelloFrameRoundTrip(t *testing.T) {
	h := fabric.Hello{
		Shards: 4, Shard: 2, RangeSize: 1009, NumVertices: 4036,
		FloatBias: true,
		Peers:     []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"},
		Session:   0xDEADBEEFCAFE,
		Cache:     fabric.CacheSpec{Size: 128, MinDegree: 4, RemoteSize: 64, RequestAfter: 3},
	}
	got := roundTrip(t, &frame{Kind: kHelloCoord, Hello: h})
	if got.Kind != kHelloCoord || !reflect.DeepEqual(got.Hello, h) {
		t.Fatalf("hello round-trip: got %+v, want %+v", got.Hello, h)
	}
}

// TestWalkerBatchFrameRoundTrip pins the coalesced hand-off frame: the
// batch decodes walker-for-walker, RNG streams intact.
func TestWalkerBatchFrameRoundTrip(t *testing.T) {
	r := xrand.New(3)
	ws := make([]fabric.Walker, 5)
	for i := range ws {
		r.Uint64()
		ws[i] = fabric.Walker{
			ID: uint64(100 + i), Cur: graph.VertexID(4_000_000_000 + i), Left: i,
			Rng: r.State(), Steps: int64(i) * 7, Transfers: int64(i), Remote: int64(i % 2),
		}
	}
	got := roundTrip(t, &frame{Kind: kWalkerBatch, Walkers: ws})
	if got.Kind != kWalkerBatch || !reflect.DeepEqual(got.Walkers, ws) {
		t.Fatalf("walker batch round-trip: got %+v, want %+v", got.Walkers, ws)
	}
}

// TestViewFrameRoundTrip pins the hub-view request/reply frames,
// including a full VertexView payload with dense and list groups.
func TestViewFrameRoundTrip(t *testing.T) {
	rq := fabric.ViewRequest{From: 3, Vertex: 4_123_456_789}
	gotRq := roundTrip(t, &frame{Kind: kViewReq, ViewReq: rq})
	if gotRq.Kind != kViewReq || !reflect.DeepEqual(gotRq.ViewReq, rq) {
		t.Fatalf("view request round-trip: got %+v, want %+v", gotRq.ViewReq, rq)
	}

	rp := fabric.ViewReply{
		From: 1, Vertex: 4_123_456_789, Hub: true, Applied: 987654,
		View: core.VertexView{
			Vertex:    4_123_456_789,
			Epoch:     44,
			Applied:   987654,
			RadixBits: 3,
			Dsts:      []graph.VertexID{5, 4_294_967_295, 9},
			Bias:      []uint64{3, 1 << 40, 7},
			Rem:       []float32{0, 0.25, 0.5},
			Groups: []core.ViewGroup{
				{GID: 2, Kind: core.KindRegular, Count: 2, One: -1, List: []int32{0, 2}},
				{GID: 9, Kind: core.KindOne, Count: 1, One: 1},
			},
			Cum:     []float64{12, 14, 14.75},
			Dec:     true,
			DecList: []int32{1, 2},
			DecSum:  0.75,
		},
	}
	gotRp := roundTrip(t, &frame{Kind: kViewRep, ViewRep: rp})
	if gotRp.Kind != kViewRep || !reflect.DeepEqual(gotRp.ViewRep, rp) {
		t.Fatalf("view reply round-trip: got %+v, want %+v", gotRp.ViewRep, rp)
	}
}

// TestLoopbackFabricSession exercises the transport end to end over real
// loopback sockets, beneath the walk layer: session hello, routed
// publish + barrier + ack, a walker launched on shard 0, transferred
// peer-to-peer to shard 1, retired to the coordinator, then shutdown.
func TestLoopbackFabricSession(t *testing.T) {
	l0, err := Listen("127.0.0.1:0", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l0.Close()
	l1, err := Listen("127.0.0.1:0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	addrs := []string{l0.Addr().String(), l1.Addr().String()}

	coord, err := Dial(addrs, fabric.Hello{RangeSize: 100, NumVertices: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	sessions := make([]*ShardConn, 2)
	for i, l := range []*Listener{l0, l1} {
		sc, h, err := l.Accept()
		if err != nil {
			t.Fatalf("shard %d accept: %v", i, err)
		}
		if h.Shard != i || h.Shards != 2 || h.RangeSize != 100 || len(h.Peers) != 2 || h.Session == 0 {
			t.Fatalf("shard %d hello %+v", i, h)
		}
		sessions[i] = sc
	}
	s0, s1 := sessions[0], sessions[1]

	// Shard node stand-ins: echo barriers as acks, forward every walker
	// once (0 → 1), retire it at shard 1.
	done := make(chan struct{})
	go func() {
		defer close(done)
		in, ok := s0.NextIngest()
		if !ok || len(in.Ups) != 2 || in.Ups[1].Src != 4_000_000_000 {
			t.Errorf("shard 0 ingest: ok=%v %+v", ok, in)
			return
		}
		bar, ok := s0.NextIngest()
		if !ok || bar.Barrier != 7 {
			t.Errorf("shard 0 barrier: ok=%v %+v", ok, bar)
			return
		}
		s0.Ack(&fabric.Ack{Shard: 0, Seq: bar.Barrier, Updates: 2})
		wk, ok := s0.NextWalker()
		if !ok {
			t.Error("shard 0: no walker")
			return
		}
		wk.Cur, wk.Transfers = 150, 1
		if err := s0.ForwardWalker(1, wk); err != nil {
			t.Errorf("forward: %v", err)
		}
	}()
	go func() {
		bar, ok := s1.NextIngest()
		if !ok || bar.Barrier != 7 {
			t.Errorf("shard 1 barrier: ok=%v %+v", ok, bar)
			return
		}
		s1.Ack(&fabric.Ack{Shard: 1, Seq: bar.Barrier})
		wk, ok := s1.NextWalker()
		if !ok || wk.Cur != 150 || wk.Transfers != 1 {
			t.Errorf("shard 1 walker: ok=%v %+v", ok, wk)
			return
		}
		wk.Steps = 5
		s1.Retire(wk)
	}()

	if err := coord.PublishUpdates(0, fabric.Ingest{Ups: []graph.Update{
		{Op: graph.OpInsert, Src: 1, Dst: 2, Bias: 3},
		{Op: graph.OpInsert, Src: 4_000_000_000, Dst: 5, Bias: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := coord.PublishBarrier(fabric.Ingest{Barrier: 7}); err != nil {
		t.Fatal(err)
	}
	if err := coord.LaunchWalker(0, &fabric.Walker{ID: 11, Cur: 10, Left: 5}); err != nil {
		t.Fatal(err)
	}

	acks, retires := 0, 0
	for acks < 2 || retires < 1 {
		ev, ok := coord.NextEvent()
		if !ok {
			t.Fatalf("event stream ended early (acks %d, retires %d)", acks, retires)
		}
		switch ev.Kind {
		case fabric.EvAck:
			if ev.Ack.Seq != 7 {
				t.Fatalf("ack %+v", ev.Ack)
			}
			acks++
		case fabric.EvRetire:
			if ev.Walker.ID != 11 || ev.Walker.Steps != 5 {
				t.Fatalf("retire %+v", ev.Walker)
			}
			retires++
		}
	}
	<-done

	// Shutdown: the daemons' streams end, they close, the event stream
	// follows.
	coord.Close()
	for i, s := range []*ShardConn{s0, s1} {
		if _, ok := s.NextWalker(); ok {
			t.Fatalf("shard %d walker stream still open after shutdown", i)
		}
		if _, ok := s.NextIngest(); ok {
			t.Fatalf("shard %d ingest stream still open after shutdown", i)
		}
		s.Close()
	}
	deadline := time.After(10 * time.Second)
	for {
		ev, ok := coord.NextEvent()
		if !ok {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("event stream did not close after shutdown (stuck on %+v)", ev)
		default:
		}
	}
}

// pipeLinks returns the two ends of an in-memory connection as links.
func pipeLinks(t testing.TB) (*link, *link) {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() {
		c1.Close()
		c2.Close()
	})
	return newLink(c1), newLink(c2)
}

// sampleFrame builds a representative frame of kind k, its content
// varied by i. Slices and maps are non-empty or nil, never empty, since
// gob decodes an empty one as nil.
func sampleFrame(k uint8, i int) *frame {
	v := graph.VertexID(4_000_000_000 + i)
	walker := func(id int) fabric.Walker {
		r := xrand.New(uint64(id) + 1)
		path := make([]graph.VertexID, 40)
		for j := range path {
			path[j] = v + graph.VertexID(j)
		}
		return fabric.Walker{
			ID: uint64(id), Cur: v, Left: 40, Rng: r.State(), Record: true, Path: path,
			Steps: 40, Transfers: int64(id % 7), Local: 30, Remote: 3,
		}
	}
	marks := []int64{int64(i), int64(2 * i), 7}
	switch k {
	case kHelloCoord:
		return &frame{Kind: k, Hello: fabric.Hello{
			Shards: 2, Shard: i % 2, RangeSize: 1009, NumVertices: 4036,
			Peers: []string{"127.0.0.1:1", "127.0.0.1:2"}, Session: uint64(i) + 1,
			Cache: fabric.CacheSpec{Size: 128, MinDegree: 4},
		}}
	case kHelloPeer:
		return &frame{Kind: k, From: i % 4, Session: uint64(i) + 99}
	case kWalker, kRetire:
		return &frame{Kind: k, Walker: walker(i)}
	case kWalkerBatch:
		ws := make([]fabric.Walker, 8)
		for j := range ws {
			ws[j] = walker(i*8 + j)
		}
		return &frame{Kind: k, Walkers: ws}
	case kUpdates:
		ups := make([]graph.Update, 25)
		for j := range ups {
			ups[j] = graph.Update{Op: graph.OpInsert, Src: v, Dst: graph.VertexID(j), Bias: uint64(j + 1)}
		}
		ups[3].Op, ups[7].FBias = graph.OpDelete, 0.625
		return &frame{Kind: k, Ingest: fabric.Ingest{Ups: ups, Watermarks: marks}}
	case kBarrier:
		return &frame{Kind: k, Ingest: fabric.Ingest{Barrier: uint64(i) + 1, Watermarks: marks}}
	case kAck:
		return &frame{Kind: k, Ack: fabric.Ack{
			Shard: i % 2, Seq: uint64(i) + 1, Updates: int64(100 * i), Vertices: 40_000, Steps: int64(i) * 80,
			Cache: fabric.CacheTallies{LocalHits: int64(i), RemoteHits: 3, ViewRequests: 1},
		}}
	case kViewReq:
		return &frame{Kind: k, ViewReq: fabric.ViewRequest{From: i % 2, Vertex: v}}
	case kViewRep:
		dsts := make([]graph.VertexID, 16)
		bias := make([]uint64, 16)
		for j := range dsts {
			dsts[j], bias[j] = graph.VertexID(j*31), uint64(j+1)
		}
		return &frame{Kind: k, ViewRep: fabric.ViewReply{
			From: 1, Vertex: v, Hub: true, Applied: int64(i),
			View: core.VertexView{
				Vertex: v, Epoch: uint64(i), Applied: int64(i), RadixBits: 3, Dsts: dsts, Bias: bias,
				Groups: []core.ViewGroup{{GID: 2, Kind: core.KindRegular, Count: 2, One: -1, List: []int32{0, 2}}},
				Cum:    []float64{12, 14},
			},
		}}
	case kShutdown:
		return &frame{Kind: k}
	case kMigBlock:
		return &frame{Kind: k, MigBlock: fabric.MigrateBlock{
			Block: uint64(i), From: 1, Epoch: 5, Watermark: 99,
			Rows: []graph.Update{{Op: graph.OpInsert, Src: v, Dst: 1, Bias: 2}},
		}}
	case kMigDone:
		return &frame{Kind: k, MigDone: fabric.MigrateDone{Shard: 1, Block: uint64(i), Epoch: 5, Edges: 12}}
	case kCredit:
		return &frame{Kind: k, Credit: fabric.Credit{Shard: i % 2, Credited: int64(25 * i)}}
	case kBroadcast:
		return &frame{Kind: k, Bcast: fabric.Broadcast{
			Seq: uint64(i) + 1, Epoch: 3, Overlay: map[uint64]int{9: 1}, RangeSize: 1009, Vertices: 4036,
			Watermarks: marks,
		}}
	}
	panic("sampleFrame: unknown kind")
}

// bigUpdates is an updates frame large enough to exceed retainCap, like a
// bootstrap batch.
func bigUpdates(n int) *frame {
	ups := make([]graph.Update, n)
	for j := range ups {
		ups[j] = graph.Update{Op: graph.OpInsert, Src: graph.VertexID(j), Dst: graph.VertexID(4_000_000_000 - j), Bias: uint64(j) + 1}
	}
	return &frame{Kind: kUpdates, Ingest: fabric.Ingest{Ups: ups, Boot: true, Watermarks: []int64{int64(n)}}}
}

// TestLinkStreamMixedFrames sends 1,000 frames of every kind down one
// link pair: each must arrive in order, equal to what was sent, while the
// persistent codec carries type state from frame to frame. A few
// oversized frames make the sender drop its codec; the receiver must
// switch decoders exactly then and stay in step.
func TestLinkStreamMixedFrames(t *testing.T) {
	l1, l2 := pipeLinks(t)
	r := rand.New(rand.NewSource(5))
	sent := make([]*frame, 1000)
	big := 0
	for i := range sent {
		if i%211 == 100 {
			sent[i] = bigUpdates(8000)
			big++
			continue
		}
		sent[i] = sampleFrame(uint8(1+r.Intn(len(kindNames)-1)), i)
	}
	errc := make(chan error, 1)
	go func() {
		for _, f := range sent {
			if err := l1.write(f); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	resets := 0
	for i, want := range sent {
		dec := l2.dec
		got, err := l2.read()
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		if l2.dec != dec {
			resets++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d (kind %s): got %+v, want %+v", i, kindNames[want.Kind], got, want)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	// One codec for the first frame, one more after each oversized one.
	if resets != 1+big {
		t.Fatalf("%d codec resets over %d oversized frames, want %d", resets, big, 1+big)
	}
	if l1.ebuf.Cap() > retainCap {
		t.Fatalf("link kept a %d-byte encode buffer", l1.ebuf.Cap())
	}
}

// TestLinkStreamNoCarryOver pins decoding into a fresh frame: gob leaves
// fields absent from the wire untouched, so a failed walker with a path
// followed by a clean one must not leak Failed or Path into the second.
func TestLinkStreamNoCarryOver(t *testing.T) {
	l1, l2 := pipeLinks(t)
	first := fabric.Walker{ID: 1, Cur: 9, Failed: true, Path: []graph.VertexID{1, 2, 3}, Steps: 3}
	second := fabric.Walker{ID: 2, Cur: 5, Left: 4}
	errc := make(chan error, 1)
	go func() {
		errc <- l1.write(&frame{Kind: kRetire, Walker: first}, &frame{Kind: kWalker, Walker: second})
	}()
	for _, want := range []fabric.Walker{first, second} {
		got, err := l2.read()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Walker, want) {
			t.Fatalf("got %+v, want %+v", got.Walker, want)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("injected encode failure") }

// TestEncodeErrorClosesLink forces an encode failure part-way through a
// stream. The encoder's state is then unknown, so the link must close:
// the peer sees the stream end instead of a desynchronized frame, and
// every later write fails.
func TestEncodeErrorClosesLink(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	l1, l2 := newLink(c1), newLink(c2)
	errc := make(chan error, 1)
	go func() { errc <- l1.write(sampleFrame(kWalker, 1)) }()
	if _, err := l2.read(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	l1.enc = gob.NewEncoder(failWriter{})
	if err := l1.write(sampleFrame(kCredit, 2)); err == nil {
		t.Fatal("write succeeded through a failing encoder")
	}
	if err := l1.write(sampleFrame(kWalker, 3)); err == nil {
		t.Fatal("write succeeded on a poisoned link")
	}
	c2.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a pipe supports deadlines
	if f, err := l2.read(); !errors.Is(err, io.EOF) {
		t.Fatalf("peer read %+v, %v from a poisoned link; want the stream closed", f, err)
	}
}
