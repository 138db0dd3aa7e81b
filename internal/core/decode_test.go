package core

import (
	"testing"
	"unsafe"

	"jportal/internal/bytecode"
	"jportal/internal/isa"
	"jportal/internal/meta"
	"jportal/internal/ptdecode"
)

func mkEvents() ([]ptdecode.Event, *bytecode.Program, *meta.CompiledMethod) {
	prog := bytecode.MustAssemble(fig2Src)
	fun := prog.MethodByName("Test.fun")
	// A small fake blob covering fun's first three instructions, with the
	// middle one carrying an inline frame.
	a := isa.NewAssembler("b", meta.CodeCacheBase)
	a.Emit(isa.Linear, 4, 0, "")
	a.Emit(isa.Linear, 4, 0, "")
	a.Emit(isa.Linear, 4, 0, "")
	blob := a.Finish()
	cm := &meta.CompiledMethod{
		Root: fun.ID, Tier: 2, Code: blob,
		Debug: []meta.DebugRecord{
			{Addr: blob.Instrs[0].Addr, Frames: []meta.Frame{{Method: fun.ID, PC: 0}}},
			{Addr: blob.Instrs[1].Addr, Frames: []meta.Frame{{Method: fun.ID, PC: 0}}}, // same bci: collapses
			{Addr: blob.Instrs[2].Addr, Frames: []meta.Frame{{Method: fun.ID, PC: 1}}, Approximate: true},
		},
	}
	events := []ptdecode.Event{
		{Kind: ptdecode.EvTime, TSC: 100},
		{Kind: ptdecode.EvTemplate, Op: bytecode.ILOAD},
		{Kind: ptdecode.EvTemplate, Op: bytecode.IFEQ},
		{Kind: ptdecode.EvTemplateTNT, Op: bytecode.IFEQ, Taken: true},
		{Kind: ptdecode.EvGap, LostBytes: 64, GapStart: 150, GapEnd: 400},
		{Kind: ptdecode.EvJITRange, Blob: cm, First: 0, Last: 3},
		{Kind: ptdecode.EvDesync},
		{Kind: ptdecode.EvTemplate, Op: bytecode.IRETURN},
	}
	return events, prog, cm
}

func TestTokenizeEvents(t *testing.T) {
	events, prog, _ := mkEvents()
	segs, st := TokenizeEvents(prog, events)
	if len(segs) != 3 {
		t.Fatalf("segments: %d", len(segs))
	}
	// Segment 0: iload, ifeq(taken).
	s0 := segs[0].Tokens
	if len(s0) != 2 || s0[0].Op != bytecode.ILOAD || !s0[1].HasDir || !s0[1].Taken {
		t.Errorf("seg0: %v", s0)
	}
	if s0[0].TSC != 100 {
		t.Errorf("seg0 tsc: %d", s0[0].TSC)
	}
	// Segment 1: the JIT range collapsed to 2 located tokens; gap before.
	s1 := segs[1]
	if s1.GapBefore == nil || s1.GapBefore.LostBytes != 64 || s1.GapBefore.Desync {
		t.Fatalf("seg1 gap: %+v", s1.GapBefore)
	}
	if len(s1.Tokens) != 2 {
		t.Fatalf("seg1 tokens: %v", s1.Tokens)
	}
	if !s1.Tokens[0].Located() || s1.Tokens[0].PC != 0 || s1.Tokens[1].PC != 1 {
		t.Errorf("seg1 locations: %v", s1.Tokens)
	}
	if s1.Tokens[0].Op != bytecode.ILOAD {
		t.Errorf("located token op not enriched: %v", s1.Tokens[0].Op)
	}
	if !s1.Tokens[1].Approx {
		t.Error("approximate flag lost")
	}
	// Segment 2 follows the desync.
	if segs[2].GapBefore == nil || !segs[2].GapBefore.Desync {
		t.Errorf("seg2 gap: %+v", segs[2].GapBefore)
	}
	if st.Segments != 3 || st.Gaps != 1 || st.LostBytes != 64 {
		t.Errorf("stats: %+v", st)
	}
	if st.LocatedTokens != 2 {
		t.Errorf("located tokens: %d", st.LocatedTokens)
	}
}

func TestTokenizeSynthesisesOrphanTNT(t *testing.T) {
	prog := bytecode.MustAssemble(fig2Src)
	events := []ptdecode.Event{
		// A TNT whose dispatch was lost (post-gap FUP anchor): the branch
		// token is synthesised.
		{Kind: ptdecode.EvTemplateTNT, Op: bytecode.IFNE, Taken: false},
	}
	segs, _ := TokenizeEvents(prog, events)
	if len(segs) != 1 || len(segs[0].Tokens) != 1 {
		t.Fatalf("segs: %+v", segs)
	}
	tk := segs[0].Tokens[0]
	if tk.Op != bytecode.IFNE || !tk.HasDir || tk.Taken {
		t.Errorf("token: %v", tk)
	}
}

func TestTokenizeMergesAdjacentGaps(t *testing.T) {
	prog := bytecode.MustAssemble(fig2Src)
	events := []ptdecode.Event{
		{Kind: ptdecode.EvTemplate, Op: bytecode.ILOAD},
		{Kind: ptdecode.EvGap, LostBytes: 10, GapStart: 100, GapEnd: 200},
		{Kind: ptdecode.EvGap, LostBytes: 20, GapStart: 200, GapEnd: 300},
		{Kind: ptdecode.EvTemplate, Op: bytecode.ICONST},
	}
	segs, st := TokenizeEvents(prog, events)
	if len(segs) != 2 {
		t.Fatalf("segments: %d", len(segs))
	}
	g := segs[1].GapBefore
	if g == nil || g.LostBytes != 30 || g.Start != 100 || g.End != 300 {
		t.Errorf("merged gap: %+v", g)
	}
	if st.Gaps != 2 {
		t.Errorf("gap count: %d", st.Gaps)
	}
}

func TestSegmentAbstractionCaching(t *testing.T) {
	seg := &Segment{Tokens: fig2ElseTrace()}
	a := seg.Abstraction(2)
	b := seg.Abstraction(2)
	if &a[0] != &b[0] {
		t.Error("abstraction not cached")
	}
}

// TestTokenSize pins Token's packed layout: the token arena stores one per
// decoded bytecode, so a field added in the wrong place silently brings
// back padding on every slab.
func TestTokenSize(t *testing.T) {
	if n := unsafe.Sizeof(Token{}); n != 24 {
		t.Fatalf("sizeof(Token) = %d, want 24", n)
	}
}
