package ingest

import (
	"bytes"
	"testing"
)

// The wire parsers read bytes straight off the network, so each must
// reject anything malformed without panicking, and whatever it accepts
// must re-encode to the bytes it consumed: a parser that accepts more
// than the encoder can produce is reading a frame no client sent.

func FuzzReadFrame(f *testing.F) {
	for _, fr := range []struct {
		typ     byte
		payload []byte
	}{
		{FrameHello, AppendHelloSource(nil, ProtoVersion, 4, "sess-1", "etrace")},
		{FrameChunk, append(AppendSeq(nil, 7), 0x04, 0, 0, 0, 0, 1)},
		{FrameFin, AppendSeq(nil, 9)},
		{FrameErr, FormatErr(ErrCategoryProtocol, "need v3")},
		{FrameAck, nil},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr.typ, fr.payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{FrameChunk, 0xff, 0xff, 0xff, 0xff}) // length past the cap
	f.Add([]byte{FrameChunk, 3, 0, 0, 0, 1})          // payload cut short
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		typ, payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		if len(payload) > MaxFramePayload {
			t.Fatalf("accepted a %d-byte payload past the cap", len(payload))
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("frame re-encodes to %x, consumed %x", buf.Bytes(), consumed)
		}
	})
}

func FuzzParseHello(f *testing.F) {
	f.Add(AppendHello(nil, ProtoVersionBusy, 2, "push-0"))
	f.Add(AppendHelloSource(nil, ProtoVersion, 4, "sess.a_b-c", "etrace"))
	f.Add(AppendHello(nil, 1, 1, ""))
	f.Add(append(AppendHello(nil, ProtoVersion, 1, "x"), 0)) // torn source field
	f.Fuzz(func(t *testing.T, p []byte) {
		version, ncores, id, src, err := ParseHello(p)
		if err != nil {
			return
		}
		enc := AppendHelloSource(nil, version, ncores, id, src)
		// An empty source field is legal on the wire; the encoder omits it.
		if !bytes.Equal(enc, p) && !(src == "" && bytes.Equal(append(enc, 0, 0), p)) {
			t.Fatalf("HELLO re-encodes to %x, parsed from %x", enc, p)
		}
	})
}

func FuzzParseHelloAck(f *testing.F) {
	f.Add(AppendHelloAck(nil, ProtoVersion, 0))
	f.Add(AppendHelloAck(nil, ProtoVersionBusy, 1<<40))
	f.Fuzz(func(t *testing.T, p []byte) {
		version, resume, err := ParseHelloAck(p)
		if err != nil {
			return
		}
		if enc := AppendHelloAck(nil, version, resume); !bytes.Equal(enc, p) {
			t.Fatalf("HELLO_ACK re-encodes to %x, parsed from %x", enc, p)
		}
	})
}

func FuzzParseBusy(f *testing.F) {
	f.Add(AppendBusy(nil, 1000))
	f.Add(AppendBusy(nil, 0))
	f.Fuzz(func(t *testing.T, p []byte) {
		ms, err := ParseBusy(p)
		if err != nil {
			return
		}
		if enc := AppendBusy(nil, ms); !bytes.Equal(enc, p) {
			t.Fatalf("BUSY re-encodes to %x, parsed from %x", enc, p)
		}
	})
}

func FuzzParseRedirect(f *testing.F) {
	f.Add(AppendRedirect(nil, "127.0.0.1:7901"))
	f.Add(AppendRedirect(nil, "[::1]:9"))
	f.Add(AppendRedirect(nil, ""))
	f.Fuzz(func(t *testing.T, p []byte) {
		addr, err := ParseRedirect(p)
		if err != nil {
			return
		}
		if addr == "" || len(addr) > MaxRedirectAddrLen {
			t.Fatalf("accepted a %d-byte redirect address", len(addr))
		}
		if enc := AppendRedirect(nil, addr); !bytes.Equal(enc, p) {
			t.Fatalf("REDIRECT re-encodes to %x, parsed from %x", enc, p)
		}
	})
}

func FuzzSplitErr(f *testing.F) {
	f.Add(FormatErr(ErrCategoryProtocol, "client speaks v2, REDIRECT needs v3"))
	f.Add(FormatErr(ErrCategoryRedirectLoop, "a -> b -> a"))
	f.Add([]byte("session \"x\" is poisoned: disk full"))
	f.Add([]byte(ErrCategoryProtocol + ":"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		category, msg := SplitErr(payload)
		if category == "" {
			if msg != string(payload) {
				t.Fatalf("untyped ERR %q came back as %q", payload, msg)
			}
			return
		}
		if enc := FormatErr(category, msg); !bytes.Equal(enc, payload) {
			t.Fatalf("typed ERR re-encodes to %q, split from %q", enc, payload)
		}
	})
}
