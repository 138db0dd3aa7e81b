// Package jit is the simulated tiered JIT compiler (the paper's C1/C2,
// §2/§3.2). It lowers bytecode methods to simulated native code (package
// isa) laid out in the code cache, producing exactly the artefacts JPortal
// depends on:
//
//   - a native code blob whose control-flow skeleton (conditional branches,
//     direct/indirect calls and jumps, returns) a PT decoder can walk;
//   - per-native-instruction debug records mapping each pc back to a
//     bytecode instruction, through inline frames when C2 inlined callees
//     (paper Fig 3b, §6 "Dealing with Inlined Code");
//   - deliberate, deterministic imprecision at tier 2 — elided trivial
//     instructions and approximate bci attributions — modelling the debug
//     metadata damage real optimising compilers inflict (paper §7.2 lists
//     this as a decode-accuracy limiter).
package jit

import (
	"fmt"

	"jportal/internal/bytecode"
	"jportal/internal/isa"
	"jportal/internal/meta"
	"jportal/internal/seeded"
)

// Options configures a compilation.
type Options struct {
	// Tier is 1 (client compiler: fast, no inlining, precise debug info)
	// or 2 (server compiler: inlining, elision, approximate records).
	Tier int
	// Base is the code-cache address where the blob starts.
	Base uint64
	// CompiledEntries maps already-compiled methods to their native entry
	// so invokestatic call sites can be bound directly (no TIP at
	// runtime); unlisted callees get an indirect resolution stub.
	CompiledEntries map[bytecode.MethodID]uint64
	// InlineMaxCode is the callee size limit for C2 inlining.
	InlineMaxCode int
	// InlineMaxDepth bounds nested inlining.
	InlineMaxDepth int
	// ElidePercent is the C2 probability (deterministic, hash-based) that
	// a trivial value-shuffling instruction is optimised away entirely,
	// leaving no native instruction and hence no debug record.
	ElidePercent int
	// ApproxPercent is the C2 probability that a debug record's bci is
	// coarsened to the start of its unit's predecessor (modelling loop
	// transformation damage).
	ApproxPercent int
	// Salt seeds the deterministic hash.
	Salt uint64
}

// DefaultC1 returns tier-1 options.
func DefaultC1(base uint64, entries map[bytecode.MethodID]uint64) Options {
	return Options{Tier: 1, Base: base, CompiledEntries: entries}
}

// DefaultC2 returns tier-2 options.
func DefaultC2(base uint64, entries map[bytecode.MethodID]uint64) Options {
	return Options{
		Tier: 2, Base: base, CompiledEntries: entries,
		InlineMaxCode: 40, InlineMaxDepth: 3,
		ElidePercent: 14, ApproxPercent: 4,
	}
}

// CtxID identifies an inline context within a compilation; 0 is the root.
type CtxID int32

// Ctx records one inline context.
type Ctx struct {
	ID CtxID
	// Parent is the enclosing context (-1 for the root).
	Parent CtxID
	// SiteBCI is the call-site bci in the parent that was inlined.
	SiteBCI int32
	// Method executing in this context.
	Method bytecode.MethodID
}

// CallInfo describes how a call site was lowered.
type CallInfo struct {
	// Inlined is the child context when the site was inlined (else -1).
	Inlined CtxID
	// Direct is the bound native entry for a direct call (0 when the call
	// is indirect or inlined).
	Direct uint64
}

// Unit is the native code generated for one (context, bci).
type Unit struct {
	Ctx CtxID
	BCI int32
	// First/Last delimit the blob instruction index range [First, Last);
	// empty for elided instructions.
	First, Last int32
	// CondAddr is the address of the conditional-branch instruction for
	// branch units (0 otherwise).
	CondAddr uint64
}

type ukey struct {
	ctx CtxID
	bci int32
}

// NativeMethod is a completed compilation: the exported metadata plus the
// execution-support tables the VM uses to drive trace emission through this
// code.
type NativeMethod struct {
	Meta *meta.CompiledMethod
	Tier int

	prog  *bytecode.Program
	ctxs  []Ctx
	units []Unit
	index map[ukey]int32
	calls map[ukey]CallInfo
}

// Program returns the program this compilation belongs to.
func (n *NativeMethod) Program() *bytecode.Program { return n.prog }

// Root returns the root method ID.
func (n *NativeMethod) Root() bytecode.MethodID { return n.Meta.Root }

// EntryAddr returns the blob entry address.
func (n *NativeMethod) EntryAddr() uint64 { return n.Meta.EntryAddr() }

// CtxInfo returns the inline context record.
func (n *NativeMethod) CtxInfo(c CtxID) Ctx { return n.ctxs[c] }

// UnitFor returns the unit for (ctx, bci); ok is false if it does not exist
// (which would indicate VM/JIT disagreement and is a bug).
func (n *NativeMethod) UnitFor(c CtxID, bci int32) (Unit, bool) {
	i, ok := n.index[ukey{c, bci}]
	if !ok {
		return Unit{}, false
	}
	return n.units[i], true
}

// AddrOf returns the native address where execution of (ctx, bci) begins.
// For elided units this is the address of the next emitted instruction.
func (n *NativeMethod) AddrOf(c CtxID, bci int32) uint64 {
	u, ok := n.UnitFor(c, bci)
	if !ok {
		panic(fmt.Sprintf("jit: no unit for ctx%d bci%d in m%d", c, bci, n.Meta.Root))
	}
	if int(u.First) < len(n.Meta.Code.Instrs) {
		return n.Meta.Code.Instrs[u.First].Addr
	}
	return n.Meta.Code.Limit()
}

// CallAt describes the lowering of the call site (ctx, bci).
func (n *NativeMethod) CallAt(c CtxID, bci int32) (CallInfo, bool) {
	ci, ok := n.calls[ukey{c, bci}]
	return ci, ok
}

// CondAddrAt returns the native conditional-branch address for a branch
// unit.
func (n *NativeMethod) CondAddrAt(c CtxID, bci int32) uint64 {
	u, ok := n.UnitFor(c, bci)
	if !ok || u.CondAddr == 0 {
		panic(fmt.Sprintf("jit: no cond branch at ctx%d bci%d in m%d", c, bci, n.Meta.Root))
	}
	return u.CondAddr
}

// Units returns the unit list (shared; do not mutate). Exposed for tests.
func (n *NativeMethod) Units() []Unit { return n.units }

// hashPct is a deterministic percentile for elision/approximation
// decisions.
func hashPct(salt uint64, mid bytecode.MethodID, ctx CtxID, bci int32) int {
	h := seeded.Mix(salt ^ uint64(mid)<<40 ^ uint64(uint32(ctx))<<20 ^ uint64(uint32(bci)))
	return int(h % 100)
}

// elidable reports whether op may be optimised away at tier 2 without
// changing the observable native control flow.
func elidable(op bytecode.Opcode) bool {
	switch op {
	case bytecode.NOP, bytecode.ICONST, bytecode.ILOAD, bytecode.ISTORE,
		bytecode.DUP, bytecode.POP, bytecode.SWAP, bytecode.IINC:
		return true
	}
	return false
}

// native instruction sizes by role, in bytes; arbitrary but fixed so
// layouts are deterministic.
const (
	szLinear   = 3
	szCmp      = 3
	szJcc      = 6
	szJmp      = 5
	szCall     = 5
	szCallInd  = 6
	szRet      = 1
	szEpilogue = 3
	szPrologue = 4
	szSwitch   = 4
	szJmpInd   = 7
)

// Compile lowers method mid of prog according to opts.
func Compile(prog *bytecode.Program, mid bytecode.MethodID, opts Options) (*NativeMethod, error) {
	if opts.Tier != 1 && opts.Tier != 2 {
		return nil, fmt.Errorf("jit: bad tier %d", opts.Tier)
	}
	c := &compiler{
		prog: prog,
		opts: opts,
		nm: &NativeMethod{
			prog:  prog,
			Tier:  opts.Tier,
			index: make(map[ukey]int32),
			calls: make(map[ukey]CallInfo),
		},
		asm: isa.NewAssembler(fmt.Sprintf("m%d.t%d", mid, opts.Tier), opts.Base),
	}
	root := prog.Method(mid)
	if root == nil {
		return nil, fmt.Errorf("jit: unknown method m%d", mid)
	}
	c.nm.ctxs = []Ctx{{ID: 0, Parent: -1, SiteBCI: -1, Method: mid}}

	// Prologue: frame setup, attributed to bci 0 of the root.
	c.beginDebug(0, 0)
	c.asm.Emit(isa.Linear, szPrologue, 0, "prologue: stack bang")
	c.asm.Emit(isa.Linear, szLinear, 0, "prologue: frame setup")
	c.endDebug()

	if err := c.lowerMethod(0, root, 0); err != nil {
		return nil, err
	}
	if err := c.patch(); err != nil {
		return nil, err
	}

	blob := c.asm.Finish()
	inlined := make([]bytecode.MethodID, 0, len(c.nm.ctxs)-1)
	for _, cx := range c.nm.ctxs[1:] {
		inlined = append(inlined, cx.Method)
	}
	c.nm.Meta = &meta.CompiledMethod{
		Root:    mid,
		Tier:    opts.Tier,
		Code:    blob,
		Debug:   c.debug,
		Inlined: inlined,
	}
	if err := c.nm.Meta.Validate(); err != nil {
		return nil, err
	}
	return c.nm, nil
}

type compiler struct {
	prog  *bytecode.Program
	opts  Options
	nm    *NativeMethod
	asm   *isa.Assembler
	debug []meta.DebugRecord

	// fixups patch branch targets once all units have addresses.
	fixups []branchFixup

	// curFrames is the debug frame chain for instructions being emitted.
	curFrames []meta.Frame
	curApprox bool
	debugMark int
}

type branchFixup struct {
	instrAddr uint64
	ctx       CtxID
	bci       int32
}

// beginDebug sets the frame chain that instructions emitted until endDebug
// are attributed to. ctx identifies the inline chain; bci the innermost
// instruction.
func (c *compiler) beginDebug(ctx CtxID, bci int32) {
	chain := c.chainOf(ctx)
	frames := make([]meta.Frame, 0, len(chain))
	for i, cx := range chain {
		if i == len(chain)-1 {
			frames = append(frames, meta.Frame{Method: cx.Method, PC: bci})
		} else {
			// Outer frames are at their inlined call sites.
			frames = append(frames, meta.Frame{Method: cx.Method, PC: chain[i+1].SiteBCI})
		}
	}
	c.curFrames = frames
	c.curApprox = false
	if c.opts.Tier == 2 && hashPct(c.opts.Salt^0xa11, c.chainMethod(ctx), ctx, bci) < c.opts.ApproxPercent {
		// Coarsen: the record points at the unit's bci rounded down to an
		// even index, the way loop transformations smear attributions.
		f := &c.curFrames[len(c.curFrames)-1]
		if f.PC > 0 {
			f.PC = f.PC &^ 1
		}
		c.curApprox = true
	}
	c.debugMark = len(c.asm.Finish().Instrs)
}

func (c *compiler) chainMethod(ctx CtxID) bytecode.MethodID { return c.nm.ctxs[ctx].Method }

// chainOf returns root..ctx.
func (c *compiler) chainOf(ctx CtxID) []Ctx {
	var rev []Ctx
	for cur := ctx; cur >= 0; cur = c.nm.ctxs[cur].Parent {
		rev = append(rev, c.nm.ctxs[cur])
	}
	out := make([]Ctx, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// endDebug writes debug records for every instruction emitted since
// beginDebug.
func (c *compiler) endDebug() {
	instrs := c.asm.Finish().Instrs
	for i := c.debugMark; i < len(instrs); i++ {
		frames := make([]meta.Frame, len(c.curFrames))
		copy(frames, c.curFrames)
		c.debug = append(c.debug, meta.DebugRecord{
			Addr:        instrs[i].Addr,
			Frames:      frames,
			Approximate: c.curApprox,
		})
	}
}

// lowerMethod emits units for every instruction of m in context ctx.
func (c *compiler) lowerMethod(ctx CtxID, m *bytecode.Method, depth int) error {
	for bci := int32(0); bci < int32(len(m.Code)); bci++ {
		if err := c.lowerInstr(ctx, m, bci, depth); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) addUnit(ctx CtxID, bci int32, first, last int32, condAddr uint64) {
	u := Unit{Ctx: ctx, BCI: bci, First: first, Last: last, CondAddr: condAddr}
	c.nm.index[ukey{ctx, bci}] = int32(len(c.nm.units))
	c.nm.units = append(c.nm.units, u)
}

func (c *compiler) lowerInstr(ctx CtxID, m *bytecode.Method, bci int32, depth int) error {
	ins := &m.Code[bci]
	first := int32(len(c.asm.Finish().Instrs))
	var condAddr uint64

	emitDefault := func() {
		c.beginDebug(ctx, bci)
		c.asm.Emit(isa.Linear, szLinear, 0, ins.String())
		c.endDebug()
	}

	switch {
	case ins.Op == bytecode.GOTO:
		c.beginDebug(ctx, bci)
		a := c.asm.Emit(isa.Jump, szJmp, 0, ins.String())
		c.endDebug()
		c.fixups = append(c.fixups, branchFixup{instrAddr: a, ctx: ctx, bci: ins.A})

	case ins.Op.IsCondBranch():
		c.beginDebug(ctx, bci)
		c.asm.Emit(isa.Linear, szCmp, 0, "cmp")
		a := c.asm.Emit(isa.CondBranch, szJcc, 0, ins.String())
		c.endDebug()
		condAddr = a
		c.fixups = append(c.fixups, branchFixup{instrAddr: a, ctx: ctx, bci: ins.A})

	case ins.Op == bytecode.TABLESWITCH:
		c.beginDebug(ctx, bci)
		c.asm.Emit(isa.Linear, szSwitch, 0, "switch index computation")
		c.asm.Emit(isa.IndirectJump, szJmpInd, 0, ins.String())
		c.endDebug()

	case ins.Op == bytecode.INVOKESTATIC:
		callee := c.prog.Method(bytecode.MethodID(ins.A))
		if c.shouldInline(callee, depth) {
			child := CtxID(len(c.nm.ctxs))
			c.nm.ctxs = append(c.nm.ctxs, Ctx{ID: child, Parent: ctx, SiteBCI: bci, Method: callee.ID})
			c.nm.calls[ukey{ctx, bci}] = CallInfo{Inlined: child}
			// The call site itself becomes argument shuffling.
			c.beginDebug(ctx, bci)
			c.asm.Emit(isa.Linear, szLinear, 0, "inline arg setup: "+ins.String())
			c.endDebug()
			c.addUnit(ctx, bci, first, int32(len(c.asm.Finish().Instrs)), 0)
			// Splice the callee body right here.
			if err := c.lowerMethod(child, callee, depth+1); err != nil {
				return err
			}
			return nil
		}
		if entry, ok := c.opts.CompiledEntries[callee.ID]; ok {
			c.nm.calls[ukey{ctx, bci}] = CallInfo{Inlined: -1, Direct: entry}
			c.beginDebug(ctx, bci)
			c.asm.Emit(isa.Call, szCall, entry, ins.String())
			c.endDebug()
		} else {
			c.nm.calls[ukey{ctx, bci}] = CallInfo{Inlined: -1}
			c.beginDebug(ctx, bci)
			c.asm.Emit(isa.IndirectCall, szCallInd, 0, ins.String()+" (resolution stub)")
			c.endDebug()
		}

	case ins.Op == bytecode.INVOKEDYN:
		c.nm.calls[ukey{ctx, bci}] = CallInfo{Inlined: -1}
		c.beginDebug(ctx, bci)
		c.asm.Emit(isa.Linear, szLinear, 0, "dispatch table load")
		c.asm.Emit(isa.IndirectCall, szCallInd, 0, ins.String())
		c.endDebug()

	case ins.Op.IsReturn():
		if ctx != 0 {
			// Inlined return: jump to the continuation after the call
			// site in the parent context.
			parent := c.nm.ctxs[ctx].Parent
			site := c.nm.ctxs[ctx].SiteBCI
			c.beginDebug(ctx, bci)
			a := c.asm.Emit(isa.Jump, szJmp, 0, "inline return")
			c.endDebug()
			c.fixups = append(c.fixups, branchFixup{instrAddr: a, ctx: parent, bci: site + 1})
		} else {
			c.beginDebug(ctx, bci)
			c.asm.Emit(isa.Linear, szEpilogue, 0, "epilogue")
			c.asm.Emit(isa.Ret, szRet, 0, ins.String())
			c.endDebug()
		}

	case ins.Op == bytecode.ATHROW:
		c.beginDebug(ctx, bci)
		c.asm.Emit(isa.Linear, szLinear, 0, "throw setup")
		c.endDebug()

	default:
		if c.opts.Tier == 2 && elidable(ins.Op) &&
			hashPct(c.opts.Salt, m.ID, ctx, bci) < c.opts.ElidePercent {
			// Optimised away: no native instruction, no debug record.
			c.addUnit(ctx, bci, first, first, 0)
			return nil
		}
		emitDefault()
	}

	c.addUnit(ctx, bci, first, int32(len(c.asm.Finish().Instrs)), condAddr)
	return nil
}

func (c *compiler) shouldInline(callee *bytecode.Method, depth int) bool {
	if c.opts.Tier != 2 || callee == nil {
		return false
	}
	if depth >= c.opts.InlineMaxDepth {
		return false
	}
	if len(callee.Code) > c.opts.InlineMaxCode {
		return false
	}
	if callee.ID == c.nm.ctxs[0].Method {
		return false // no recursive inlining into self
	}
	return true
}

// patch resolves branch fixups to unit start addresses.
func (c *compiler) patch() error {
	for _, f := range c.fixups {
		u, ok := c.nm.UnitFor(f.ctx, f.bci)
		if !ok {
			return fmt.Errorf("jit: fixup to missing unit ctx%d bci%d", f.ctx, f.bci)
		}
		instrs := c.asm.Finish().Instrs
		var target uint64
		if int(u.First) < len(instrs) {
			target = instrs[u.First].Addr
		} else {
			target = c.asm.PC()
		}
		c.asm.PatchTarget(f.instrAddr, target)
	}
	return nil
}
