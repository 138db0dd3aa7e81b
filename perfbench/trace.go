package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"jportal"
	"jportal/internal/core"
	"jportal/internal/ingest"
	"jportal/internal/ingest/client"
	"jportal/internal/meta"
	"jportal/internal/source"
	"jportal/internal/streamfmt"
	"jportal/internal/trace"
	"jportal/internal/vm"
)

// maxUnattributed bounds the share of the traced replay's wall time that
// its stage spans may leave unaccounted for; a larger share fails the run.
const maxUnattributed = 0.05

// stage is one span kind of the composed replay.
type stage int

const (
	stRead          stage = iota // archive: StreamArchiveReader open/Next, snapshot and blob records
	stBuild                      // core: NewPipeline (ICFG and matcher)
	stCarve                      // trace: StreamStitcher sideband, watermarks, Feed/Drain/Finish
	stDecode                     // source: Decoder.DecodeChunk/Flush
	stTokenize                   // core.tokenize: StreamTokenizer
	stMatch                      // core.match: Matcher.ReconstructSegmentScratch
	stRecoverIndex               // core.recover_index: NewRecoverer
	stRecoverSearch              // core.recover_search: Recoverer.RecoverHole
	stMerge                      // core.merge: SegmentFlow.AppendSteps plus the fills
	numStages
)

var stageMetric = [numStages]string{
	"archive.read_s", "core.build_s", "trace.carve_s", "source.decode_s", "core.tokenize_s",
	"core.match_s", "core.recover_index_s", "core.recover_search_s", "core.merge_s",
}

// spans accumulates busy time per stage; with on false it takes no clock
// readings at all, which is the untraced comparison pass.
type spans struct {
	on bool
	d  [numStages]time.Duration
}

func (s *spans) start() time.Time {
	if !s.on {
		return time.Time{}
	}
	return time.Now()
}

func (s *spans) end(k stage, t0 time.Time) {
	if s.on {
		s.d[k] += time.Since(t0)
	}
}

// counts are the items in and out of the composed replay's stages.
type counts struct {
	itemsIn, itemsOut, peakBuffered int
	events, desyncs                 int
	tokens, segments                int
	matched, skipped                int
	holes, filled, candidates       int
	steps                           int
}

// threadState is one thread's decode → tokenize → match → recover chain,
// the stages core.ThreadAnalyzer runs, held apart so each can be timed.
type threadState struct {
	dec  source.Decoder
	tk   *core.StreamTokenizer
	pend []*core.Segment
}

// composedReplay replays the archive by calling each stage's public entry
// point serially, in the order a synchronous Session with MaxPendingSegments
// 0 applies them, and returns the per-thread steps. Its output must equal
// the Session's: that is what makes the stage split a split of the same
// program.
func composedReplay(in *inputs, dir string, sp *spans, c *counts) ([][]core.Step, error) {
	t := sp.start()
	r, err := jportal.OpenStreamArchive(dir)
	sp.end(stRead, t)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	pcfg := in.pcfg
	pcfg.Source = r.Source()
	var (
		pipe    *core.Pipeline
		st      *trace.StreamStitcher
		snap    *meta.Snapshot
		threads []*threadState
	)
	apply := func(deltas []trace.ThreadStream) {
		if len(deltas) == 0 {
			return
		}
		t := sp.start()
		snap.Seal()
		sp.end(stDecode, t)
		for len(threads) < st.NumThreads() {
			threads = append(threads, &threadState{dec: pipe.Source().NewDecoder(snap), tk: core.NewStreamTokenizer(in.prog)})
		}
		for _, d := range deltas {
			ts := threads[d.Thread]
			c.itemsOut += len(d.Items)
			t := sp.start()
			evs := ts.dec.DecodeChunk(d.Items)
			sp.end(stDecode, t)
			c.events += len(evs)
			t = sp.start()
			ts.tk.Feed(evs)
			ts.pend = append(ts.pend, ts.tk.Take()...)
			sp.end(stTokenize, t)
		}
	}
	for {
		t := sp.start()
		ev, err := r.Next()
		if err == nil {
			switch ev.Kind {
			case jportal.EvSnapshot:
				snap = ev.Snapshot
				snap.Seal()
			case jportal.EvBlob:
				if snap == nil {
					return nil, fmt.Errorf("%s: blob record before snapshot", dir)
				}
				if snap.Compiled[ev.Blob.EntryAddr()] != ev.Blob {
					snap.Export(ev.Blob)
				}
			}
		}
		sp.end(stRead, t)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if ev.Kind != jportal.EvSnapshot && snap == nil {
			return nil, fmt.Errorf("%s: record before snapshot", dir)
		}
		switch ev.Kind {
		case jportal.EvSnapshot:
			t := sp.start()
			pipe = core.NewPipeline(r.Program(), pcfg)
			sp.end(stBuild, t)
			t = sp.start()
			st = trace.NewStreamStitcher(r.NumCores(), pipe.Source().Traits())
			sp.end(stCarve, t)
		case jportal.EvSideband:
			t := sp.start()
			st.AddSideband([]vm.SwitchRecord{ev.Rec})
			sp.end(stCarve, t)
		case jportal.EvWatermark:
			t := sp.start()
			st.Watermark(ev.Core, ev.Mark)
			sp.end(stCarve, t)
		case jportal.EvChunk:
			c.itemsIn += len(ev.Items)
			t := sp.start()
			err := st.Feed(ev.Core, ev.Items)
			c.peakBuffered = max(c.peakBuffered, st.BufferedItems())
			deltas := st.Drain()
			sp.end(stCarve, t)
			if err != nil {
				return nil, err
			}
			apply(deltas)
		}
	}
	if st == nil {
		return nil, fmt.Errorf("%s: stream has no snapshot record", dir)
	}
	t = sp.start()
	deltas := st.Finish()
	sp.end(stCarve, t)
	apply(deltas)
	for len(threads) < st.NumThreads() {
		threads = append(threads, &threadState{dec: pipe.Source().NewDecoder(snap), tk: core.NewStreamTokenizer(in.prog)})
	}

	m := pipe.Matcher
	sc := m.NewScratch()
	out := make([][]core.Step, len(threads))
	for i, ts := range threads {
		t := sp.start()
		evs := ts.dec.Flush()
		sp.end(stDecode, t)
		c.events += len(evs)
		c.desyncs += ts.dec.Stats().Desyncs
		t = sp.start()
		ts.tk.Feed(evs)
		segs := append(ts.pend, ts.tk.Finish()...)
		sp.end(stTokenize, t)
		c.segments += len(segs)

		flows := make([]*core.SegmentFlow, len(segs))
		t = sp.start()
		for j, seg := range segs {
			flows[j] = m.ReconstructSegmentScratch(sc, seg)
		}
		sp.end(stMatch, t)
		for _, f := range flows {
			c.tokens += len(f.Seg.Tokens)
			c.matched += f.Matched()
			c.skipped += f.Skipped
		}

		t = sp.start()
		rec := core.NewRecoverer(m, flows, pcfg.Recovery)
		sp.end(stRecoverIndex, t)
		fills := make([]core.Fill, len(flows))
		t = sp.start()
		for j := 0; j+1 < len(flows); j++ {
			fills[j] = rec.RecoverHole(j)
		}
		sp.end(stRecoverSearch, t)
		for j := 0; j+1 < len(flows); j++ {
			if flows[j+1].Seg.GapBefore != nil {
				c.holes++
			}
			if fills[j].Method != core.FillNone {
				c.filled++
			}
			c.candidates += fills[j].CandidatesTried
		}

		t = sp.start()
		total := 0
		for j, f := range flows {
			total += f.Matched() + len(fills[j].Steps)
		}
		steps := make([]core.Step, 0, total)
		for j, f := range flows {
			steps = f.AppendSteps(steps)
			if fills[j].Method != core.FillNone {
				steps = append(steps, fills[j].Steps...)
			}
		}
		sp.end(stMerge, t)
		c.steps += len(steps)
		out[i] = steps
	}
	return out, nil
}

// sessionReplay replays the archive through jportal.Session
// (the loop of jportal.AnalyzeStreamArchive) with its calls timed:
// input delivery (Feed, AddSideband, Watermark, AddBlobs), Drain, and
// Close.
func sessionReplay(in *inputs, dir string) (feed, drain, closeT time.Duration, steps [][]core.Step, err error) {
	r, err := jportal.OpenStreamArchive(dir)
	if err != nil {
		return
	}
	defer r.Close()
	pcfg := in.pcfg
	pcfg.Source = r.Source()
	var sess *jportal.Session
	for {
		var ev *jportal.StreamEvent
		ev, err = r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return
		}
		if ev.Kind != jportal.EvSnapshot && sess == nil {
			err = fmt.Errorf("%s: record before snapshot", dir)
			return
		}
		t := time.Now()
		switch ev.Kind {
		case jportal.EvSnapshot:
			sess, err = jportal.OpenSession(r.Program(), ev.Snapshot, r.NumCores(), pcfg)
		case jportal.EvBlob:
			err = sess.AddBlobs([]*meta.CompiledMethod{ev.Blob})
		case jportal.EvSideband:
			sess.AddSideband([]vm.SwitchRecord{ev.Rec})
		case jportal.EvWatermark:
			sess.Watermark(ev.Core, ev.Mark)
		case jportal.EvChunk:
			err = sess.Feed(ev.Core, ev.Items)
			feed += time.Since(t)
			if err == nil {
				t = time.Now()
				err = sess.Drain()
				drain += time.Since(t)
			}
			if err != nil {
				return
			}
			continue
		}
		feed += time.Since(t)
		if err != nil {
			return
		}
	}
	if sess == nil {
		err = fmt.Errorf("%s: stream has no snapshot record", dir)
		return
	}
	t := time.Now()
	an, err := sess.Close()
	closeT = time.Since(t)
	if err == nil {
		steps = analysisSteps(an)
	}
	return
}

// tracedRun is the -trace 1 run. It reports every per-layer metric of the
// workload's archive: the set-up's VM and archive-write split, then for
// the first three quarters of the measured time the composed replay,
// alternating traced and untraced passes, plus one timed Session pass,
// and for the rest traced pushes into an in-process server. Every output is
// checked against the in-memory analysis of the same run.
func tracedRun(in *inputs, arch *archive, dir string, deadline time.Time, rep *report) error {
	plain, err := vm.New(in.prog, in.rcfg.VM).Run(in.threads)
	if err != nil {
		return fmt.Errorf("untraced VM run: %w", err)
	}
	rep.set("vm.trace_slowdown_x", "x", float64(arch.run.Stats.ActiveCycles)/float64(plain.ActiveCycles))

	replayEnd := time.Now().Add(time.Until(deadline) * 3 / 4)
	var tracedWalls, plainWalls, unattributed []float64
	var perStage [numStages][]float64
	var c counts
	warm, err := composedReplay(in, arch.dir, &spans{}, &counts{})
	if err != nil {
		return fmt.Errorf("composed replay: %w", err)
	}
	hashes := []uint64{stepsHash(warm)}
	for i := 0; i < 2 || time.Now().Before(replayEnd); i++ {
		sp := &spans{on: i%2 == 0}
		var steps [][]core.Step
		var err error
		c = counts{}
		k := measure(func() { steps, err = composedReplay(in, arch.dir, sp, &c) })
		if err != nil {
			return fmt.Errorf("composed replay: %w", err)
		}
		hashes = append(hashes, stepsHash(steps))
		if !sp.on {
			plainWalls = append(plainWalls, k.wall.Seconds())
			continue
		}
		tracedWalls = append(tracedWalls, k.wall.Seconds())
		var sum time.Duration
		for s, d := range sp.d {
			perStage[s] = append(perStage[s], d.Seconds())
			sum += d
		}
		unattributed = append(unattributed, (k.wall-sum).Seconds()/k.wall.Seconds())
	}
	for s, v := range perStage {
		rep.set(stageMetric[s], "s", median(v))
	}
	ua := median(unattributed)
	rep.set("trace.unattributed_frac", "frac", ua)
	rep.check(ua <= maxUnattributed, "stage spans leave %.4f of the traced wall unattributed (bound %g)", ua, maxUnattributed)
	rep.set("trace.overhead_frac", "frac", median(tracedWalls)/median(plainWalls)-1)
	rep.note("composed replay: %d traced and %d untraced passes, traced median %.4fs", len(tracedWalls), len(plainWalls), median(tracedWalls))
	for _, m := range []struct {
		name string
		v    int
	}{
		{"trace.items_in", c.itemsIn}, {"trace.items_out", c.itemsOut}, {"trace.peak_buffered_items", c.peakBuffered},
		{"source.events", c.events}, {"source.desyncs", c.desyncs},
		{"core.tokens", c.tokens}, {"core.segments", c.segments},
		{"core.matched_nodes", c.matched}, {"core.match_skipped", c.skipped},
		{"core.holes", c.holes}, {"core.holes_filled", c.filled}, {"core.candidates_tried", c.candidates},
		{"core.steps", c.steps},
	} {
		rep.set(m.name, "count", float64(m.v))
	}

	feed, drain, closeT, steps, err := sessionReplay(in, arch.dir)
	if err != nil {
		return fmt.Errorf("session replay: %w", err)
	}
	rep.set("session.feed_s", "s", feed.Seconds())
	rep.set("session.drain_s", "s", drain.Seconds())
	rep.set("session.close_s", "s", closeT.Seconds())
	sessHash := stepsHash(steps)

	if err := tracedPushes(arch, dir, deadline, rep); err != nil {
		return err
	}

	_, ref, err := reference(in)
	if err != nil {
		return err
	}
	refHash := stepsHash(analysisSteps(ref))
	checkStepsPin(in, refHash, rep)
	rep.check(sessHash == refHash, "session replay: steps hash %#016x, in-memory jportal.Analyze %#016x", sessHash, refHash)
	failed := 0
	for i, h := range hashes {
		if h != sessHash {
			failed++
			rep.check(false, "composed replay %d: steps hash %#016x, Session %#016x", i, h, sessHash)
		}
	}
	rep.res.Attempted = len(hashes)
	rep.res.Failed = failed
	return nil
}

// tracedPushes pushes the archive with pushSessions concurrent sessions per
// push, driving client.Pusher directly (the frames client.PushArchive
// sends) so each Send and the Finish can be timed, until the deadline.
// Server-side counters come from Server.Metrics().
func tracedPushes(arch *archive, dir string, deadline time.Time, rep *report) error {
	src, err := readSourceArchive(arch.dir)
	if err != nil {
		return err
	}
	srv, err := startServer(filepath.Join(dir, "ingest-traced"))
	if err != nil {
		return err
	}
	var blocked, seal, lat []float64
	frames, nacks, reconnects, pushes := 0, 0, 0, 0
	for ; pushes < 2 || time.Now().Before(deadline); pushes++ {
		ss := make([]*tracedSession, pushSessions)
		done := make(chan struct{})
		for k := range ss {
			ss[k] = &tracedSession{id: fmt.Sprintf("t%d-s%d", pushes, k), tap: newTap()}
			go func(p *tracedSession) {
				p.push(srv.addr, src)
				done <- struct{}{}
			}(ss[k])
		}
		for range ss {
			<-done
		}
		for _, p := range ss {
			if p.err != nil {
				err = fmt.Errorf("traced push %s: %w", p.id, p.err)
				break
			}
			rep.check(srv.sameArchive(p.id, src), "traced push %s: server archive differs from the source", p.id)
			if err = os.RemoveAll(filepath.Join(srv.dataDir, p.id)); err != nil {
				break
			}
			blocked = append(blocked, p.blocked.Seconds())
			for _, d := range p.tap.lat {
				lat = append(lat, float64(d)/float64(time.Millisecond))
			}
			seal = append(seal, p.seal.Seconds())
			frames += p.frames
			nacks += p.nacks
			reconnects += p.reconnects
		}
		if err != nil {
			break
		}
	}
	m := srv.srv.Metrics()
	chunks, ingested, persistErrs := m.ChunksIngested.Load(), m.BytesIngested.Load(), m.StatePersistErrors.Load()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	perPush := func(n int64) float64 { return float64(n) / float64(pushes) }
	rep.set("client.send_blocked_s", "s", median(blocked))
	rep.set("client.ack_p50_ms", "ms", median(lat))
	rep.set("client.ack_p99_ms", "ms", percentile(lat, 0.99))
	rep.set("ingest.seal_s", "s", median(seal))
	rep.set("client.frames", "count", perPush(int64(frames)))
	rep.set("client.nacks", "count", perPush(int64(nacks)))
	rep.set("client.reconnects", "count", perPush(int64(reconnects)))
	rep.set("ingest.chunks_ingested", "count", perPush(chunks))
	rep.set("ingest.bytes_ingested", "B", perPush(ingested))
	rep.set("ingest.state_persist_errors", "count", perPush(persistErrs))
	rep.note("traced pushes: %d pushes of %d sessions; client and ingest counts are per push, times per session; %d ACKed CHUNK frames",
		pushes, pushSessions, len(lat))
	return nil
}

// tracedSession is one traced push session.
type tracedSession struct {
	id                        string
	tap                       *tap
	blocked, seal             time.Duration
	frames, nacks, reconnects int
	err                       error
}

// push sends the archive the way client.PushArchive does — the program
// frame, then whole records batched up to maxChunkBytes — and times the
// sends and the Finish. Time inside Send that the connection's writes do
// not account for is time blocked on the server's acknowledgements.
func (p *tracedSession) push(addr string, src *sourceArchive) {
	ncores, err := streamfmt.ParseHeader(src.stream)
	if err != nil {
		p.err = err
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
	defer cancel()
	pu, err := client.Dial(ctx, client.Options{Addr: addr, SessionID: p.id, MaxChunkBytes: maxChunkBytes, Dial: p.tap.dial}, ncores)
	if err != nil {
		p.err = err
		return
	}
	defer pu.Close()
	w0 := p.tap.writeNs.Load() // the handshake's writes
	var inSend time.Duration
	send := func(typ byte, data []byte) error {
		t := time.Now()
		_, err := pu.Send(typ, data)
		inSend += time.Since(t)
		p.frames++
		return err
	}
	if p.err = send(ingest.FrameProgram, src.program); p.err != nil {
		return
	}
	records := src.stream[streamfmt.HeaderLen:]
	for off := 0; off < len(records); {
		end := off
		for end < len(records) {
			n, err := streamfmt.Scan(records[end:])
			if err != nil {
				p.err = err
				return
			}
			if end > off && end+n-off > maxChunkBytes {
				break
			}
			end += n
		}
		if p.err = send(ingest.FrameChunk, records[off:end]); p.err != nil {
			return
		}
		off = end
	}
	p.blocked = inSend - time.Duration(p.tap.writeNs.Load()-w0)
	t := time.Now()
	p.err = pu.Finish()
	p.seal = time.Since(t)
	p.nacks = pu.Nacks()
	p.reconnects = pu.Reconnects()
}
