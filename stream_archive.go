package jportal

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/fault"
	"jportal/internal/iofault"
	"jportal/internal/meta"
	"jportal/internal/metrics"
	"jportal/internal/source"
	"jportal/internal/streamfmt"
	"jportal/internal/vm"
	"jportal/internal/watchdog"
)

// The chunked archive is the streaming counterpart of SaveRun: instead of
// four complete artefacts written after the run, everything goes into one
// append-only stream.jpt next to program.gob, in the order the online phase
// produced it. That makes the archive tail-followable — an offline analyzer
// (jportal stream -follow) can decode it while the collecting process is
// still appending — and it preserves §3.2's dump-before-use discipline on
// disk: a blob record always precedes the first chunk whose trace bytes
// reference it.
//
// The record format lives in internal/streamfmt (it is shared with the
// networked ingest layer, which relays the same records over TCP). A
// reader that hits the end of the file before a complete record sees
// ErrStreamPending rather than a decode error: the writer only ever
// flushes whole records, so a short tail means "not written yet", never
// corruption. Actual corruption — flipped bytes, truncated payloads, a
// seal whose checksum does not cover what was read — surfaces as an error
// wrapping streamfmt.ErrCorrupt.

// StreamFileName is the record stream inside a chunked archive directory.
const StreamFileName = "stream.jpt"

// ArchivesIdentical reports whether two chunked archive directories hold
// byte-identical record streams and program metadata: the check a pushed
// or ingested copy must pass against its source archive.
func ArchivesIdentical(srcDir, dstDir string) bool {
	for _, name := range []string{StreamFileName, "program.gob"} {
		a, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			return false
		}
		b, err := os.ReadFile(filepath.Join(dstDir, name))
		if err != nil || !bytes.Equal(a, b) {
			return false
		}
	}
	return true
}

// ErrStreamPending is returned by StreamArchiveReader.Next when the archive
// ends mid-record or before a seal: the writer has not (yet) appended the
// next record. Followers wait and retry; one-shot readers treat it as a
// truncated archive.
var ErrStreamPending = errors.New("jportal: stream archive has no complete next record (still being written?)")

// StreamArchiveWriter appends a run's outputs to a chunked archive as they
// happen. It implements TraceSink and BlobSink, so it plugs directly into
// RunWithSink. Methods record the first error and turn later calls into
// no-ops; Drain and Seal report it.
type StreamArchiveWriter struct {
	f   iofault.File
	bw  *bufio.Writer
	enc *streamfmt.Encoder
	err error
}

// InitChunkedArchiveDir creates dir and writes the archive.meta header
// declaring the chunked layout. It is the first step of CreateStreamArchive,
// exported separately for the ingest server, which assembles the same
// archive from records relayed over the network.
func InitChunkedArchiveDir(dir string) error {
	return InitChunkedArchiveDirSource(dir, "")
}

// InitChunkedArchiveDirSource is InitChunkedArchiveDir for a run collected
// by the named trace source ("" = the default, Intel PT): the header
// records the source ID so readers decode the chunks with the right
// backend.
func InitChunkedArchiveDirSource(dir, srcID string) error {
	return InitChunkedArchiveDirFS(dir, srcID, iofault.OS)
}

// InitChunkedArchiveDirFS is InitChunkedArchiveDirSource with the header
// write routed through fsys, so a fault injector covering the archive
// directory also covers its creation.
func InitChunkedArchiveDirFS(dir, srcID string, fsys iofault.FS) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeArchiveMetaFS(fsys, dir, LayoutChunked, srcID)
}

// WriteArchiveProgram validates that programGob decodes to a well-formed
// program and writes it verbatim as dir's program.gob. The ingest server
// uses it to persist the program bytes a client relayed, byte-identical to
// the client's local archive.
func WriteArchiveProgram(dir string, programGob []byte) error {
	return WriteArchiveProgramFS(dir, programGob, iofault.OS)
}

// WriteArchiveProgramFS is WriteArchiveProgram with the write routed
// through fsys: the ingest server persists relayed program bytes on the
// same faultable path as the record stream, so an injected ENOSPC here is
// shed and retried like any other storage fault.
func WriteArchiveProgramFS(dir string, programGob []byte, fsys iofault.FS) error {
	var prog bytecode.Program
	if err := gob.NewDecoder(bytes.NewReader(programGob)).Decode(&prog); err != nil {
		return fmt.Errorf("jportal: program bytes do not decode: %w", err)
	}
	if err := bytecode.Verify(&prog); err != nil {
		return fmt.Errorf("jportal: relayed program invalid: %w", err)
	}
	return writeFileFS(fsys, filepath.Join(dir, "program.gob"), programGob)
}

// CreateStreamArchive creates dir as a chunked run archive: header,
// program, and a stream.jpt opened with the initial snapshot record (the
// template table and stubs exist before any thread runs; compiled methods
// arrive later as blob records).
func CreateStreamArchive(dir string, prog *bytecode.Program, snap *meta.Snapshot, ncores int) (*StreamArchiveWriter, error) {
	return CreateStreamArchiveSource(dir, prog, snap, ncores, "")
}

// CreateStreamArchiveSource is CreateStreamArchive for a run collected by
// the named trace source ("" = the default, Intel PT).
func CreateStreamArchiveSource(dir string, prog *bytecode.Program, snap *meta.Snapshot, ncores int, srcID string) (*StreamArchiveWriter, error) {
	return CreateStreamArchiveFS(dir, prog, snap, ncores, srcID, iofault.OS)
}

// CreateStreamArchiveFS is CreateStreamArchiveSource with every write —
// header, program, and the record stream itself — routed through fsys.
// Passing iofault.OS (what the non-FS constructors do) touches the real
// filesystem directly; passing an injector-scoped FS makes the whole local
// collection path draw from one deterministic fault stream, which is how
// jportal chaos -disk exercises the writer.
func CreateStreamArchiveFS(dir string, prog *bytecode.Program, snap *meta.Snapshot, ncores int, srcID string, fsys iofault.FS) (*StreamArchiveWriter, error) {
	if ncores <= 0 {
		return nil, fmt.Errorf("jportal: stream archive needs at least one core, got %d", ncores)
	}
	if fsys == nil {
		fsys = iofault.OS
	}
	if _, err := source.Lookup(srcID); err != nil {
		return nil, fmt.Errorf("jportal: %w", err)
	}
	if err := InitChunkedArchiveDirFS(dir, srcID, fsys); err != nil {
		return nil, err
	}
	if err := writeGobFS(fsys, filepath.Join(dir, "program.gob"), prog); err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(filepath.Join(dir, StreamFileName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &StreamArchiveWriter{f: f, bw: bufio.NewWriter(f)}
	w.enc, err = streamfmt.NewEncoder(w.bw, ncores)
	if err == nil {
		err = w.enc.Snapshot(snap)
	}
	if err == nil {
		err = w.flush()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// AddBlobs appends one blob record per exported method (BlobSink).
func (w *StreamArchiveWriter) AddBlobs(blobs []*meta.CompiledMethod) error {
	if w.err != nil {
		return w.err
	}
	for _, c := range blobs {
		if err := w.enc.Blob(c); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// AddSideband appends one sideband record per switch record (TraceSink).
func (w *StreamArchiveWriter) AddSideband(recs []vm.SwitchRecord) {
	if w.err != nil {
		return
	}
	for i := range recs {
		if err := w.enc.Sideband(recs[i]); err != nil {
			w.err = err
			return
		}
	}
}

// Watermark appends a watermark record when it moves the core's mark
// forward (TraceSink).
func (w *StreamArchiveWriter) Watermark(core int, mark uint64) {
	if w.err != nil {
		return
	}
	if err := w.enc.Watermark(core, mark); err != nil {
		w.err = err
	}
}

// Feed appends one chunk record framing the items with source.AppendItem
// (TraceSink).
func (w *StreamArchiveWriter) Feed(core int, items []source.Item) error {
	if w.err != nil {
		return w.err
	}
	if err := w.enc.Chunk(core, items); err != nil {
		w.err = fmt.Errorf("jportal: stream archive: %w", err)
	}
	return w.err
}

// flush pushes buffered whole records to the file so followers can see
// them.
func (w *StreamArchiveWriter) flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// Drain flushes to disk (TraceSink): after it returns, a follower reads
// every record appended so far.
func (w *StreamArchiveWriter) Drain() error { return w.flush() }

// Seal appends the seal record — carrying the CRC-32 of the whole stream —
// flushes, and closes the file. The archive is complete: readers reach the
// seal (and verify the checksum) instead of ErrStreamPending, and LoadRun
// accepts the directory.
func (w *StreamArchiveWriter) Seal() error {
	if w.err == nil {
		w.err = w.enc.Seal()
		if w.err == nil {
			w.err = w.bw.Flush()
		}
	}
	if cerr := w.f.Close(); w.err == nil {
		w.err = cerr
	}
	return w.err
}

// StreamEventKind discriminates StreamEvent.
type StreamEventKind = streamfmt.Kind

// Stream event kinds, in record-tag order.
const (
	EvSnapshot  = streamfmt.KindSnapshot
	EvBlob      = streamfmt.KindBlob
	EvSideband  = streamfmt.KindSideband
	EvChunk     = streamfmt.KindChunk
	EvWatermark = streamfmt.KindWatermark
	EvSeal      = streamfmt.KindSeal
)

// StreamEvent is one decoded record of a chunked archive.
type StreamEvent = streamfmt.Record

// StreamArchiveReader reads a chunked archive record by record, including
// one that is still being written: Next returns ErrStreamPending at an
// incomplete tail (retry after the writer appends more) and io.EOF once the
// seal record has been consumed. The seal's checksum is verified against
// every byte read; a mismatch is reported as corruption, so a damaged or
// silently truncated archive cannot pass for a complete one.
type StreamArchiveReader struct {
	f      *os.File
	prog   *bytecode.Program
	ncores int
	buf    []byte // read-ahead; buf[pos:] is not yet consumed
	pos    int
	off    int64  // file offset of the first byte past buf
	crc    uint32 // checksum of all consumed bytes (header + records, pre-seal)
	sealed bool
	// src is the trace source the archive header names; its traits
	// validate every decoded item.
	src source.Source
	// items is the chunk-record decode buffer, reused across Next calls:
	// a chunk event's Items alias it and are valid until the next Next.
	items []source.Item
}

// OpenStreamArchive opens dir (which must be a chunked-layout archive) and
// reads the fixed header. The initial snapshot record arrives as the first
// Next event.
func OpenStreamArchive(dir string) (*StreamArchiveReader, error) {
	_, layout, srcID, err := readArchiveMeta(dir)
	if err != nil {
		return nil, err
	}
	if layout != LayoutChunked {
		return nil, fmt.Errorf("jportal: %s is a %q archive, not a chunked stream", dir, layout)
	}
	src, err := source.Lookup(srcID)
	if err != nil {
		return nil, fmt.Errorf("jportal: %s: %w", dir, err)
	}
	var prog bytecode.Program
	if err := readGob(filepath.Join(dir, "program.gob"), &prog); err != nil {
		return nil, err
	}
	if err := bytecode.Verify(&prog); err != nil {
		return nil, fmt.Errorf("jportal: archived program invalid: %w", err)
	}
	f, err := os.Open(filepath.Join(dir, StreamFileName))
	if err != nil {
		return nil, err
	}
	r := &StreamArchiveReader{f: f, src: src}
	if err := r.fill(streamfmt.HeaderLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("jportal: %s: truncated stream header", dir)
	}
	r.ncores, err = streamfmt.ParseHeader(r.unread())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("jportal: %s: %w", dir, err)
	}
	r.consume(streamfmt.HeaderLen)
	r.prog = &prog
	return r, nil
}

// Program returns the archived program.
func (r *StreamArchiveReader) Program() *bytecode.Program { return r.prog }

// NumCores returns the stream's core count.
func (r *StreamArchiveReader) NumCores() int { return r.ncores }

// Source returns the trace source the archive was collected with.
func (r *StreamArchiveReader) Source() source.Source { return r.src }

// Close closes the underlying file.
func (r *StreamArchiveReader) Close() error { return r.f.Close() }

// readAhead is the least the read-ahead asks the file for per read.
const readAhead = 64 << 10

// unread returns the read-ahead bytes not yet consumed.
func (r *StreamArchiveReader) unread() []byte { return r.buf[r.pos:] }

// fill grows the unconsumed read-ahead to at least n bytes, reading
// straight into the buffer's spare capacity. ErrStreamPending means the
// file currently ends before byte n; nothing is consumed, so the caller can
// retry after the writer appends.
func (r *StreamArchiveReader) fill(n int) error {
	for len(r.buf)-r.pos < n {
		if want := max(readAhead, n-(len(r.buf)-r.pos)); cap(r.buf)-len(r.buf) < want {
			// Out of spare room: slide the unconsumed bytes to the front,
			// into a larger buffer if they and the read still do not fit.
			rest := r.unread()
			if need := len(rest) + want; cap(r.buf) < need {
				r.buf = make([]byte, 0, max(need, 2*cap(r.buf)))
			}
			r.buf = r.buf[:copy(r.buf[:len(rest)], rest)]
			r.pos = 0
		}
		m, err := r.f.ReadAt(r.buf[len(r.buf):cap(r.buf)], r.off)
		r.buf = r.buf[:len(r.buf)+m]
		r.off += int64(m)
		if err == io.EOF {
			if len(r.buf)-r.pos < n {
				return ErrStreamPending
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// consume folds n bytes into the running checksum and steps past them.
func (r *StreamArchiveReader) consume(n int) {
	r.crc = crc32.Update(r.crc, crc32.IEEETable, r.buf[r.pos:r.pos+n])
	r.pos += n
	if r.pos == len(r.buf) {
		r.buf, r.pos = r.buf[:0], 0
	}
}

// Next decodes the next record. It returns ErrStreamPending at an
// incomplete (unsealed) tail, io.EOF after the seal, and an error wrapping
// streamfmt.ErrCorrupt for damaged streams — including a seal whose CRC
// does not match the bytes read before it. A chunk event's Items slice is
// only valid until the following Next call (the decode buffer is reused);
// consumers that keep items copy them, as Session.Feed does.
func (r *StreamArchiveReader) Next() (*StreamEvent, error) {
	if r.sealed {
		return nil, io.EOF
	}
	var n int
	for {
		var err error
		n, err = streamfmt.Scan(r.unread())
		if err == nil {
			break
		}
		if !errors.Is(err, streamfmt.ErrShort) {
			return nil, fmt.Errorf("jportal: stream archive: %w", err)
		}
		// Incomplete: the record needs at least one more byte than we have.
		if ferr := r.fill(len(r.unread()) + 1); ferr != nil {
			return nil, ferr
		}
	}
	ev, _, err := streamfmt.DecodeInto(r.unread()[:n], r.items, r.src.Traits())
	if err != nil {
		return nil, fmt.Errorf("jportal: stream archive: %w", err)
	}
	if ev.Kind == EvChunk {
		r.items = ev.Items
	}
	if ev.Kind == EvSeal {
		if ev.CRC != r.crc {
			return nil, fmt.Errorf("%w: seal CRC %#08x does not match stream contents (%#08x): archive damaged or truncated",
				streamfmt.ErrCorrupt, ev.CRC, r.crc)
		}
		r.sealed = true
	}
	r.consume(n)
	return &ev, nil
}

// AnalyzeStreamArchive replays a chunked archive through a streaming
// Session. With follow true it tails an archive still being written,
// sleeping poll between attempts until the seal arrives; otherwise an
// unsealed archive is an error. The result is byte-identical to batch
// Analyze over the same run.
func AnalyzeStreamArchive(dir string, cfg core.PipelineConfig, follow bool, poll time.Duration) (*bytecode.Program, *Analysis, error) {
	return AnalyzeStreamArchiveContext(context.Background(), dir, cfg, follow, poll)
}

// AnalyzeStreamArchiveContext is AnalyzeStreamArchive with cancellation:
// when ctx is cancelled mid-follow, the session is closed over everything
// consumed so far and the partial Analysis is returned alongside ctx's
// error — the caller can flush partial output (jportal stream -follow does,
// on SIGINT) while still seeing that the tail was never reached.
func AnalyzeStreamArchiveContext(ctx context.Context, dir string, cfg core.PipelineConfig, follow bool, poll time.Duration) (*bytecode.Program, *Analysis, error) {
	return AnalyzeStreamArchiveOpts(ctx, dir, cfg, StreamOptions{Follow: follow, Poll: poll})
}

// DefaultCheckpointEvery is how many chunk records pass between checkpoint
// writes when checkpointing is enabled without an explicit interval.
const DefaultCheckpointEvery = 64

// StreamOptions configures the resumable archive replay (DESIGN.md §11).
// The zero value reproduces the plain one-shot replay.
type StreamOptions struct {
	// Follow tails an archive still being written, sleeping Poll between
	// attempts until the seal arrives.
	Follow bool
	// Poll is the follow-mode retry interval (0 = 50ms).
	Poll time.Duration
	// CheckpointPath, when non-empty, enables crash-safe checkpointing:
	// session.ckpt is written there (atomically, CRC-sealed) at chunk
	// intervals, and deleted once the analysis completes.
	CheckpointPath string
	// CheckpointEvery is the chunk-record interval between checkpoint
	// writes (0 = DefaultCheckpointEvery).
	CheckpointEvery int
	// Resume restores from CheckpointPath before replaying, if a valid
	// checkpoint exists. A missing or corrupt/unreadable checkpoint falls
	// back to a full replay (the corrupt case is logged via Logf) — resume
	// never produces different output than an uninterrupted run, only less
	// recomputation.
	Resume bool
	// StallAfter, when positive, runs a watchdog supervisor over the
	// replay's progress heartbeats (records consumed, deltas applied,
	// segments reconstructed): a stall longer than this is reported to the
	// session ledger under the stall reason and counted on the
	// "watchdog_stalls" metric.
	StallAfter time.Duration
	// Logf receives resume, checkpoint and watchdog notices (nil = silent).
	Logf func(format string, args ...any)

	// stopAfterRecords is a test hook: abandon the replay (no Close, no
	// checkpoint deletion — as if the process died) after consuming this
	// many records. 0 = disabled.
	stopAfterRecords int
}

// errReplayAbandoned is the sentinel stopAfterRecords exits with.
var errReplayAbandoned = errors.New("jportal: replay abandoned by test hook")

func (o *StreamOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// AnalyzeStreamArchiveOpts replays a chunked archive through a streaming
// Session with the full resilience option set: follow mode, cancellation
// with partial results, crash-safe checkpointing, resume, and watchdog
// supervision. Output is byte-identical to the plain replay (and to batch
// Analyze) for every option combination — checkpointing and resume change
// when work happens, never what it computes.
func AnalyzeStreamArchiveOpts(ctx context.Context, dir string, cfg core.PipelineConfig, opts StreamOptions) (*bytecode.Program, *Analysis, error) {
	r, err := OpenStreamArchive(dir)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	if cfg.Source == nil {
		// Decode with the backend the archive was collected with.
		cfg.Source = r.Source()
	}
	if opts.Poll <= 0 {
		opts.Poll = 50 * time.Millisecond
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}

	// Resume: load the checkpoint up front so the replay loop knows which
	// prefix to skip. Missing file = fresh run; damaged file = fresh run
	// (the checkpoint is an optimisation, never a correctness dependency).
	var resume *SessionCheckpoint
	if opts.Resume && opts.CheckpointPath != "" {
		switch ck, err := ReadSessionCheckpoint(opts.CheckpointPath); {
		case err == nil:
			resume = ck
			opts.logf("resuming from checkpoint at record %d", ck.Records)
		case os.IsNotExist(err):
			// No checkpoint: a fresh run, or one that completed and cleaned up.
		default:
			opts.logf("checkpoint unusable, replaying from the start: %v", err)
		}
	}

	var sess *Session
	records := 0 // archive records fully applied
	chunks := 0  // chunk records among them (checkpoint cadence)
	// Error paths below return without closing the session; a pipelined
	// session owns goroutines, so release them (with a pre-cancelled
	// context: quarantine, don't compute) instead of leaking spinners.
	defer func() {
		if sess != nil && !sess.closed {
			cctx, cancel := context.WithCancel(context.Background())
			cancel()
			sess.CloseContext(cctx)
		}
	}()

	// Watchdog: sample the replay's heartbeats and report stalls. busy
	// distinguishes "working on a record" from "waiting for the writer" —
	// an idle follower is not a stall. The supervisor goroutine reaches the
	// session only through sessPtr (published once, atomically); the
	// heartbeats themselves are atomics by construction.
	var busy atomic.Bool
	var recordsHB atomic.Uint64
	var sessPtr atomic.Pointer[Session]
	if opts.StallAfter > 0 {
		dog := watchdog.New(opts.StallAfter/4, opts.StallAfter)
		dog.Register(watchdog.Probe{
			Name: "stream_replay",
			Progress: func() uint64 {
				n := recordsHB.Load()
				if s := sessPtr.Load(); s != nil {
					n += s.DeltasApplied() + s.SegmentsReconstructed()
				}
				return n
			},
			Active: busy.Load,
			OnStall: func(name string, progress uint64, stuck time.Duration) {
				metrics.Default.Add(metrics.CounterWatchdogStalls, 1)
				opts.logf("watchdog: %s stalled for %s at progress %d", name, stuck, progress)
				if s := sessPtr.Load(); s != nil {
					s.Ledger().Add(fault.Entry{
						Reason: fault.ReasonStall, Thread: -1, Core: -1,
						Detail: fmt.Sprintf("%s stalled for %s", name, stuck),
					})
				}
			},
		})
		dog.Start()
		defer dog.Stop()
	}

	checkpoint := func() {
		if opts.CheckpointPath == "" || sess == nil {
			return
		}
		ck, err := sess.ExportCheckpoint(records)
		if err == nil {
			err = WriteSessionCheckpoint(opts.CheckpointPath, ck)
		}
		if err != nil {
			// A failed checkpoint degrades resumability, not the analysis.
			opts.logf("checkpoint at record %d failed: %v", records, err)
			return
		}
		metrics.Default.Add(metrics.CounterCheckpointsWritten, 1)
	}

	partial := func(cause error) (*bytecode.Program, *Analysis, error) {
		if sess == nil {
			return nil, nil, cause
		}
		an, cerr := sess.CloseContext(ctx)
		if cerr != nil {
			return nil, nil, errors.Join(cause, cerr)
		}
		return r.Program(), an, cause
	}
	for {
		if opts.stopAfterRecords > 0 && records >= opts.stopAfterRecords {
			return nil, nil, errReplayAbandoned
		}
		ev, err := r.Next()
		if err == ErrStreamPending {
			if !opts.Follow {
				return nil, nil, fmt.Errorf("jportal: %s is unsealed (writer still running? use follow mode)", dir)
			}
			select {
			case <-ctx.Done():
				return partial(ctx.Err())
			case <-time.After(opts.Poll):
			}
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		busy.Store(true)
		// replayed marks records inside the resumed prefix: their analysis
		// effects live in the checkpoint, so only the deterministic
		// snapshot/blob replay (which rebuilds the metadata the checkpoint
		// references) is applied.
		replayed := resume != nil && records < resume.Records
		switch ev.Kind {
		case EvSnapshot:
			if sess != nil {
				busy.Store(false)
				return nil, nil, fmt.Errorf("jportal: %s: duplicate snapshot record", dir)
			}
			sess, err = OpenSession(r.Program(), ev.Snapshot, r.NumCores(), cfg)
			if err != nil {
				busy.Store(false)
				return nil, nil, err
			}
			sessPtr.Store(sess)
		case EvBlob:
			if sess == nil {
				busy.Store(false)
				return nil, nil, fmt.Errorf("jportal: %s: blob record before snapshot", dir)
			}
			if err := sess.AddBlobs([]*meta.CompiledMethod{ev.Blob}); err != nil {
				busy.Store(false)
				return nil, nil, err
			}
		case EvSideband:
			if sess == nil {
				busy.Store(false)
				return nil, nil, fmt.Errorf("jportal: %s: sideband record before snapshot", dir)
			}
			if !replayed {
				sess.AddSideband([]vm.SwitchRecord{ev.Rec})
			}
		case EvWatermark:
			if sess == nil {
				busy.Store(false)
				return nil, nil, fmt.Errorf("jportal: %s: watermark record before snapshot", dir)
			}
			if !replayed {
				sess.Watermark(ev.Core, ev.Mark)
			}
		case EvChunk:
			if sess == nil {
				busy.Store(false)
				return nil, nil, fmt.Errorf("jportal: %s: chunk record before snapshot", dir)
			}
			if !replayed {
				if err := sess.Feed(ev.Core, ev.Items); err != nil {
					busy.Store(false)
					return nil, nil, err
				}
				if err := sess.DrainContext(ctx); err != nil {
					busy.Store(false)
					return nil, nil, err
				}
				chunks++
			}
		case EvSeal:
			// loop exits via io.EOF on the next Next
		}
		records++
		recordsHB.Add(1)
		if resume != nil && records == resume.Records {
			// The prefix is replayed: the snapshot's export log now matches
			// the checkpointing run's, so the saved state can reattach.
			if err := sess.RestoreCheckpoint(resume); err != nil {
				busy.Store(false)
				return nil, nil, fmt.Errorf("jportal: resume at record %d: %w", records, err)
			}
			resume = nil
		} else if resume == nil && ev.Kind == EvChunk && !replayed && chunks%opts.CheckpointEvery == 0 {
			checkpoint()
		}
		busy.Store(false)
		if err := ctx.Err(); err != nil {
			return partial(err)
		}
	}
	if sess == nil {
		return nil, nil, fmt.Errorf("jportal: %s: stream has no snapshot record", dir)
	}
	if resume != nil {
		return nil, nil, fmt.Errorf("jportal: checkpoint covers %d records but the archive has only %d", resume.Records, records)
	}
	an, err := sess.CloseContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	if opts.CheckpointPath != "" {
		// The run is complete: a later -resume must start fresh, not replay
		// a stale mid-run state over a finished analysis.
		os.Remove(opts.CheckpointPath)
	}
	return r.Program(), an, nil
}

// loadChunkedRun materialises a sealed chunked archive as a batch
// RunResult, so every batch consumer (jportal decode, experiments) accepts
// either layout.
func loadChunkedRun(dir string, src source.Source) (*bytecode.Program, *RunResult, error) {
	r, err := OpenStreamArchive(dir)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	var snap *meta.Snapshot
	var sideband []vm.SwitchRecord
	items := make([][]source.Item, r.NumCores())
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err == ErrStreamPending {
			return nil, nil, fmt.Errorf("jportal: %s is an unsealed chunked archive; use jportal stream -follow", dir)
		}
		if err != nil {
			return nil, nil, err
		}
		switch ev.Kind {
		case EvSnapshot:
			snap = ev.Snapshot
		case EvBlob:
			if snap == nil {
				return nil, nil, fmt.Errorf("jportal: %s: blob record before snapshot", dir)
			}
			snap.Export(ev.Blob)
		case EvSideband:
			sideband = append(sideband, ev.Rec)
		case EvChunk:
			if ev.Core < 0 || ev.Core >= len(items) {
				return nil, nil, fmt.Errorf("jportal: %s: chunk for core %d of %d", dir, ev.Core, len(items))
			}
			items[ev.Core] = append(items[ev.Core], ev.Items...)
		}
	}
	if snap == nil {
		return nil, nil, fmt.Errorf("jportal: %s: stream has no snapshot record", dir)
	}
	traces := make([]source.CoreTrace, r.NumCores())
	for c := range traces {
		traces[c] = source.CoreTrace{Core: c, Items: items[c]}
	}
	return r.Program(), &RunResult{Traces: traces, Sideband: sideband, Snapshot: snap, SourceID: src.ID()}, nil
}
