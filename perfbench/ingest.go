package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"jportal"
	"jportal/internal/ingest"
)

// pushTimeout bounds one push; a healthy loopback push takes well under a
// second.
const pushTimeout = time.Minute

// maxChunkBytes is the client's frame size (the client default, set
// explicitly because the traced push batches records to it itself).
const maxChunkBytes = 64 << 10

// server is an in-process ingest.Server on a loopback listener.
type server struct {
	srv     *ingest.Server
	addr    string
	dataDir string
	done    chan error
}

func startServer(dataDir string) (*server, error) {
	srv, err := ingest.NewServer(ingest.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background()) // nothing was served; the listen error is the one to report
		return nil, err
	}
	s := &server{srv: srv, addr: ln.Addr().String(), dataDir: dataDir, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// sameArchive reports whether the server's copy of session id is
// byte-identical to the source archive (stream.jpt and program.gob).
func (s *server) sameArchive(id string, src *sourceArchive) bool {
	dir := filepath.Join(s.dataDir, id)
	stream, err1 := os.ReadFile(filepath.Join(dir, jportal.StreamFileName))
	prog, err2 := os.ReadFile(filepath.Join(dir, "program.gob"))
	return err1 == nil && err2 == nil && bytes.Equal(stream, src.stream) && bytes.Equal(prog, src.program)
}

// sourceArchive is the pushed archive's bytes, read once.
type sourceArchive struct {
	stream, program []byte
}

func readSourceArchive(dir string) (*sourceArchive, error) {
	stream, err := os.ReadFile(filepath.Join(dir, jportal.StreamFileName))
	if err != nil {
		return nil, err
	}
	prog, err := os.ReadFile(filepath.Join(dir, "program.gob"))
	if err != nil {
		return nil, err
	}
	return &sourceArchive{stream: stream, program: prog}, nil
}

// tap watches one push session from the client side through the
// client.Options.Dial hook: when each CHUNK frame was first written, the
// cumulative ACKs that cover it, and the time spent in conn.Write.
type tap struct {
	mu      sync.Mutex
	pending map[uint64]time.Time // CHUNK seq -> first write time, until ACKed
	lat     []time.Duration      // CHUNK write -> covering ACK
	writeNs atomic.Int64
}

func newTap() *tap {
	return &tap{pending: map[uint64]time.Time{}}
}

func (t *tap) dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, t: t}, nil
}

func (t *tap) sent(typ byte, seq uint64, at time.Time) {
	if typ != ingest.FrameChunk {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.pending[seq]; !ok {
		t.pending[seq] = at
	}
}

func (t *tap) acked(seq uint64, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for s, w := range t.pending {
		if s <= seq {
			t.lat = append(t.lat, at.Sub(w))
			delete(t.pending, s)
		}
	}
}

type tapConn struct {
	net.Conn
	t       *tap
	out, in frameScanner
}

func (c *tapConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.t.writeNs.Add(int64(time.Since(t0)))
	c.out.feed(p[:n], func(typ byte, seq uint64) { c.t.sent(typ, seq, t0) })
	return n, err
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	now := time.Now()
	c.in.feed(p[:n], func(typ byte, seq uint64) {
		if typ == ingest.FrameAck {
			c.t.acked(seq, now)
		}
	})
	return n, err
}

// frameScanner follows one direction of an ingest connection (frames of
// u8 type | u32 little-endian length | payload) and reports each frame
// whose payload starts with a u64 sequence number once that much of it
// has passed.
type frameScanner struct {
	head [13]byte
	n    int // bytes of head filled
	skip int // payload bytes still to pass
}

func (s *frameScanner) payloadLen() int { return int(binary.LittleEndian.Uint32(s.head[1:5])) }

func (s *frameScanner) feed(p []byte, fn func(typ byte, seq uint64)) {
	for {
		if s.skip > 0 {
			if len(p) == 0 {
				return
			}
			k := min(s.skip, len(p))
			s.skip -= k
			p = p[k:]
			continue
		}
		want := 5
		if s.n >= 5 {
			want += min(s.payloadLen(), 8)
		}
		if s.n < want {
			if len(p) == 0 {
				return
			}
			k := copy(s.head[s.n:want], p)
			s.n += k
			p = p[k:]
			continue
		}
		if want == 13 {
			fn(s.head[0], binary.LittleEndian.Uint64(s.head[5:13]))
		}
		s.skip = s.payloadLen() - (want - 5)
		s.n = 0
	}
}
