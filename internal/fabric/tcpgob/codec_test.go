// The persistent codec under hostile input and under load: a fuzz target
// over the frame decoder, which daemons run on bytes straight off the
// network, and per-kind round-trip costs of the hot frame kinds.
package tcpgob

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
)

// encodeStream returns the bytes one link writes for fs, in order.
func encodeStream(t testing.TB, fs ...*frame) []byte {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c2.Close()
	errc := make(chan error, 1)
	go func() {
		defer c1.Close()
		errc <- newLink(c1).write(fs...)
	}()
	data, err := io.ReadAll(c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzFrameDecode feeds arbitrary bytes to a link's reader until it
// fails. Whatever the input, reading must end in an error (the stream
// runs out at the latest), never a panic or a hang, and must not
// allocate beyond maxFrame. The corpus seeds one valid stream per frame
// kind, each two frames long so the second decodes against type state
// the first set up, a codec reset mid-stream, and truncated,
// oversized-length and junk streams.
func FuzzFrameDecode(f *testing.F) {
	var valid [][]byte
	for k := uint8(1); k < uint8(len(kindNames)); k++ {
		valid = append(valid, encodeStream(f, sampleFrame(k, 1), sampleFrame(k, 2)))
	}
	for _, data := range valid {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
	}
	// Two streams back to back: the second opens with the codec-reset
	// flag, as after an oversized frame.
	f.Add(append(append([]byte(nil), valid[kWalker-1]...), valid[kCredit-1]...))

	oversized := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	f.Add(oversized)
	f.Add(binary.BigEndian.AppendUint32(nil, codecReset|(maxFrame+1)))
	// A valid frame whose header claims more bytes than its gob message
	// holds, and one claiming fewer.
	long := append([]byte(nil), valid[0]...)
	binary.BigEndian.PutUint32(long, binary.BigEndian.Uint32(long)+1)
	f.Add(long)
	short := append([]byte(nil), valid[0]...)
	binary.BigEndian.PutUint32(short, binary.BigEndian.Uint32(short)-1)
	f.Add(short)
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	f.Add([]byte{0, 0, 0, 4, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c1, c2 := net.Pipe()
		defer c2.Close()
		go func() {
			c1.Write(data) //nolint:errcheck // fails once the reader gives up early
			c1.Close()
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l := newLink(c2)
		for frames := 0; ; frames++ {
			if frames > len(data) {
				t.Fatalf("%d frames decoded from %d bytes", frames, len(data))
			}
			if _, err := l.read(); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrame {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
	})
}

// BenchmarkLinkRoundTrip times one frame of each hot kind out and back
// over an in-memory pipe: encode, write, read and decode on each side.
// B/frame is what one frame puts on the wire, header included, once the
// type descriptors have crossed with the warm-up frame.
func BenchmarkLinkRoundTrip(b *testing.B) {
	for _, k := range []uint8{kWalker, kWalkerBatch, kUpdates, kCredit, kAck, kViewRep} {
		f := sampleFrame(k, 1)
		b.Run(kindNames[k], func(b *testing.B) {
			near, far := pipeLinks(b)
			errc := make(chan error, 1)
			go func() { // echo every frame back
				for {
					g, err := far.read()
					if err != nil {
						errc <- err
						return
					}
					if err := far.write(g); err != nil {
						errc <- err
						return
					}
				}
			}()
			roundTrip := func() {
				if err := near.write(f); err != nil {
					b.Fatal(err)
				}
				if _, err := near.read(); err != nil {
					b.Fatal(err)
				}
			}
			roundTrip() // warm-up: type descriptors cross once
			tx0 := txBytes[k].Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
			b.StopTimer()
			b.ReportMetric(float64(txBytes[k].Load()-tx0)/float64(2*b.N), "B/frame")
			near.conn.Close()
			<-errc
		})
	}
}
