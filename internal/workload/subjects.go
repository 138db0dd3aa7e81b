package workload

import (
	"fmt"

	"jportal/internal/bytecode"
	"jportal/internal/seeded"
	"jportal/internal/vm"
)

func sc(base int, scale Scale) int {
	n := int(float64(base) * float64(scale))
	if n < 1 {
		n = 1
	}
	return n
}

// genAvrora models an instruction-set simulator: a fetch/decode/execute
// loop over a synthetic "program" array, dispatching through a tableswitch
// to per-opcode handler methods — the branchiest of the subjects.
func genAvrora(scale Scale) *Subject {
	r := seeded.NewStream(0xa7404a)
	p := &bytecode.Program{Entry: bytecode.NoMethod}

	var leaves []bytecode.MethodID
	for i := 0; i < 28; i++ {
		leaves = append(leaves, p.AddMethod(genLeaf("Ops", i, &r)).ID)
	}

	const nHandlers = 12
	var handlers []bytecode.MethodID
	for i := 0; i < nHandlers; i++ {
		b := bytecode.NewBuilder("Interp", fmt.Sprintf("op%d", i), 2) // (regA, regB)
		b.ReturnsValue()
		n := 1 + r.Intn(3)
		for j := 0; j < n; j++ {
			emitArith(b, &r, 0, 1)
		}
		if i%3 == 0 {
			b.Iload(0)
			b.Iload(1)
			b.InvokeStatic(leaves[r.Intn(len(leaves))])
			b.Istore(0)
		}
		b.Iload(0)
		b.Ireturn()
		handlers = append(handlers, p.AddMethod(b.MustBuild()).ID)
	}

	// run(steps): the interpreter loop. locals: 0=steps, 1=pc, 2=regA,
	// 3=regB, 4=code array.
	b := bytecode.NewBuilder("Interp", "run", 1)
	b.ReturnsValue()
	const codeLen = 97
	b.Iconst(codeLen)
	b.NewArray()
	b.Istore(4)
	// Fill the code array deterministically: code[i] = (i*7+3) % nHandlers.
	b.Iconst(0).Istore(1)
	b.Label("fill")
	b.Iload(1).Iconst(codeLen).If(bytecode.IF_ICMPGE, "fetch0")
	b.Iload(4).Iload(1)
	b.Iload(1).Iconst(7).Imul().Iconst(3).Iadd().Iconst(nHandlers).Irem()
	b.Iastore()
	b.Iinc(1, 1).Goto("fill")
	b.Label("fetch0")
	b.Iconst(0).Istore(1)
	b.Iconst(1).Istore(2)
	b.Iconst(2).Istore(3)
	b.Label("fetch")
	b.Iload(0).If(bytecode.IFLE, "halt")
	// opcode = code[pc % codeLen]
	b.Iload(4)
	b.Iload(1).Iconst(codeLen).Irem()
	b.Iaload()
	var caseLabels []string
	for i := 0; i < nHandlers; i++ {
		caseLabels = append(caseLabels, fmt.Sprintf("H%d", i))
	}
	b.TableSwitch(0, "Hdef", caseLabels...)
	for i := 0; i < nHandlers; i++ {
		b.Label(fmt.Sprintf("H%d", i))
		b.Iload(2).Iload(3)
		b.InvokeStatic(handlers[i])
		b.Istore(2)
		b.Goto("next")
	}
	b.Label("Hdef")
	b.Iinc(2, 1)
	b.Label("next")
	b.Iinc(1, 3)
	b.Iinc(0, -1)
	b.Goto("fetch")
	b.Label("halt")
	b.Iload(2).Ireturn()
	run := p.AddMethod(b.MustBuild()).ID

	main := bytecode.NewBuilder("Interp", "main", 0)
	main.Iconst(int32(sc(9000, scale)))
	main.InvokeStatic(run)
	main.Pop()
	main.Return()
	p.Entry = p.AddMethod(main.MustBuild()).ID

	return &Subject{
		Name: "avrora", Program: p,
		Threads:     []vm.ThreadSpec{{Method: p.Entry}},
		Description: "switch-dispatch ISA simulator loop (branch-heavy, single thread)",
	}
}

// genBatik models a document-processing pipeline: deep static call chains
// with moderate branching.
func genBatik(scale Scale) *Subject {
	r := seeded.NewStream(0xba71c)
	p := &bytecode.Program{Entry: bytecode.NoMethod}

	var leaves []bytecode.MethodID
	for i := 0; i < 36; i++ {
		leaves = append(leaves, p.AddMethod(genLeaf("Paint", i, &r)).ID)
	}

	// A pipeline of stages, each calling the next 1-2 times plus leaves.
	const depth = 8
	prev := bytecode.NoMethod
	var stages []bytecode.MethodID
	for d := depth - 1; d >= 0; d-- {
		b := bytecode.NewBuilder("Pipeline", fmt.Sprintf("stage%d", d), 1)
		b.ReturnsValue()
		b.Iload(0)
		b.Iconst(int32(d + 1))
		b.Iadd()
		b.Istore(1)
		for c := 0; c < 1+r.Intn(2); c++ {
			b.Iload(1)
			b.Iload(0)
			b.InvokeStatic(leaves[r.Intn(len(leaves))])
			b.Istore(1)
		}
		if prev != bytecode.NoMethod {
			times := 1 + d%2
			for c := 0; c < times; c++ {
				b.Iload(1)
				b.InvokeStatic(prev)
				b.Istore(1)
			}
		}
		b.Iload(1)
		b.If(bytecode.IFGE, "pos")
		b.Iload(1)
		b.Ineg()
		b.Istore(1)
		b.Label("pos")
		b.Iload(1)
		b.Ireturn()
		prev = p.AddMethod(b.MustBuild()).ID
		stages = append(stages, prev)
	}
	_ = stages

	b := bytecode.NewBuilder("Pipeline", "main", 0)
	b.Iconst(0).Istore(0)
	b.Iconst(0).Istore(1)
	b.Label("loop")
	b.Iload(0).Iconst(int32(sc(400, scale))).If(bytecode.IF_ICMPGE, "done")
	b.Iload(0)
	b.InvokeStatic(prev)
	b.Iload(1).Iadd().Istore(1)
	b.Iinc(0, 1)
	b.Goto("loop")
	b.Label("done")
	b.Return()
	p.Entry = p.AddMethod(b.MustBuild()).ID

	return &Subject{
		Name: "batik", Program: p,
		Threads:     []vm.ThreadSpec{{Method: p.Entry}},
		Description: "deep call pipeline (call-heavy, single thread)",
	}
}

// genFop models layout computation: binary tree recursion with branch
// diamonds.
func genFop(scale Scale) *Subject {
	r := seeded.NewStream(0xf0b)
	p := &bytecode.Program{Entry: bytecode.NoMethod}

	var leaves []bytecode.MethodID
	for i := 0; i < 24; i++ {
		leaves = append(leaves, p.AddMethod(genLeaf("Area", i, &r)).ID)
	}

	// layout(depth, width): recursive.
	b := bytecode.NewBuilder("Layout", "layout", 2)
	b.ReturnsValue()
	b.Iload(0)
	b.If(bytecode.IFLE, "base")
	// left = layout(depth-1, width+1)
	b.Iload(0).Iconst(1).Isub()
	b.Iload(1).Iconst(1).Iadd()
	b.InvokeStatic(bytecode.MethodID(len(p.Methods))) // self (assigned next)
	b.Istore(2)
	// right = layout(depth-1, width^3)
	b.Iload(0).Iconst(1).Isub()
	b.Iload(1).Iconst(3).Ixor()
	b.InvokeStatic(bytecode.MethodID(len(p.Methods)))
	b.Istore(3)
	b.Iload(2).Iload(3)
	b.If(bytecode.IF_ICMPLT, "lt")
	b.Iload(2).Iload(3).Isub().Ireturn()
	b.Label("lt")
	b.Iload(3).Iload(2).Isub().Ireturn()
	b.Label("base")
	// Leaf areas do real measurement work: a small fixed-point loop, so
	// the call density of the recursion is diluted by straight-line and
	// loop execution (layout is not purely call overhead).
	b.Iconst(0).Istore(4)
	b.Label("measure")
	b.Iload(4).Iconst(10).If(bytecode.IF_ICMPGE, "measured")
	b.Iload(1).Iconst(3).Imul().Iload(4).Iadd().Istore(1)
	b.Iload(1).Iconst(0x7fff).Iand().Istore(1)
	b.Iinc(4, 1)
	b.Goto("measure")
	b.Label("measured")
	b.Iload(1)
	b.Iload(0)
	b.InvokeStatic(leaves[r.Intn(len(leaves))])
	b.Ireturn()
	layout := p.AddMethod(b.MustBuild()).ID

	b = bytecode.NewBuilder("Layout", "main", 0)
	b.Iconst(0).Istore(0)
	b.Label("loop")
	b.Iload(0).Iconst(int32(sc(60, scale))).If(bytecode.IF_ICMPGE, "done")
	b.Iconst(7)
	b.Iload(0)
	b.InvokeStatic(layout)
	b.Pop()
	b.Iinc(0, 1)
	b.Goto("loop")
	b.Label("done")
	b.Return()
	p.Entry = p.AddMethod(b.MustBuild()).ID

	return &Subject{
		Name: "fop", Program: p,
		Threads:     []vm.ThreadSpec{{Method: p.Entry}},
		Description: "tree recursion with branch diamonds (single thread)",
	}
}

// genH2 models a database engine: several worker threads execute query
// loops dispatching operators through invokedyn, scanning arrays, with
// occasional exceptions caught per query.
func genH2(scale Scale) *Subject {
	r := seeded.NewStream(0x42)
	p := &bytecode.Program{Entry: bytecode.NoMethod}

	var leaves []bytecode.MethodID
	for i := 0; i < 20; i++ {
		leaves = append(leaves, p.AddMethod(genLeaf("Util", i, &r)).ID)
	}

	// Six operators: (row, key) -> int; operator 5 throws on key%37==0.
	var ops []bytecode.MethodID
	for i := 0; i < 6; i++ {
		b := bytecode.NewBuilder("Op", fmt.Sprintf("op%d", i), 2)
		b.ReturnsValue()
		if i == 5 {
			b.Iload(1).Iconst(37).Irem()
			b.If(bytecode.IFNE, "ok")
			b.Iconst(10)
			b.Athrow()
			b.Label("ok")
		}
		for j := 0; j < 1+r.Intn(3); j++ {
			emitArith(b, &r, 0, 1)
		}
		if i%2 == 0 {
			b.Iload(0).Iload(1)
			b.InvokeStatic(leaves[r.Intn(len(leaves))])
			b.Istore(0)
		}
		b.Iload(0).Ireturn()
		ops = append(ops, p.AddMethod(b.MustBuild()).ID)
	}
	table := p.AddDispatchTable(ops...)

	// worker(tid, queries): locals 2=q, 3=acc, 4=rows array, 5=row.
	b := bytecode.NewBuilder("Engine", "worker", 2)
	b.ReturnsValue()
	const rows = 64
	b.Iconst(rows).NewArray().Istore(4)
	b.Iconst(0).Istore(2)
	b.Label("query")
	b.Iload(2).Iload(1).If(bytecode.IF_ICMPGE, "done")
	b.Iconst(0).Istore(5)
	b.Label("Ltry")
	b.Label("scan")
	b.Iload(5).Iconst(rows).If(bytecode.IF_ICMPGE, "endscan")
	// acc = dispatch(row, key) where key = q*31+row+tid, selected by key.
	b.Iload(5)
	b.Iload(2).Iconst(31).Imul().Iload(5).Iadd().Iload(0).Iadd()
	b.Dup().Istore(6)
	b.Iload(6)
	b.InvokeDyn(table)
	b.Istore(3)
	// rows[row] = acc
	b.Iload(4).Iload(5).Iload(3).Iastore()
	b.Iinc(5, 1)
	b.Goto("scan")
	b.Label("endscan")
	b.Goto("next")
	b.Label("Lcatch")
	b.Pop() // exception code
	b.Iinc(3, 1)
	b.Label("next")
	b.Iinc(2, 1)
	b.Goto("query")
	b.Label("done")
	b.Iload(3).Ireturn()
	b.Handler("Ltry", "Lcatch", "Lcatch", -1)
	worker := p.AddMethod(b.MustBuild()).ID

	// Per-thread entries.
	threads := make([]vm.ThreadSpec, 0, 4)
	for t := 0; t < 4; t++ {
		b := bytecode.NewBuilder("Engine", fmt.Sprintf("thread%d", t), 0)
		b.Iconst(int32(t))
		b.Iconst(int32(sc(90, scale)))
		b.InvokeStatic(worker)
		b.Pop()
		b.Return()
		id := p.AddMethod(b.MustBuild()).ID
		threads = append(threads, vm.ThreadSpec{Method: id})
	}
	p.Entry = threads[0].Method

	return &Subject{
		Name: "h2", Program: p,
		Threads:       threads,
		Multithreaded: true,
		Description:   "multi-threaded query engine: invokedyn operators, array scans, exceptions",
	}
}

// genJython models a dynamic-language runtime: a bytecode-ish loop
// dispatching through big dispatch tables (invokedyn everywhere).
func genJython(scale Scale) *Subject {
	r := seeded.NewStream(0x97210)
	p := &bytecode.Program{Entry: bytecode.NoMethod}

	var leaves []bytecode.MethodID
	for i := 0; i < 30; i++ {
		leaves = append(leaves, p.AddMethod(genLeaf("Py", i, &r)).ID)
	}

	var pyops []bytecode.MethodID
	for i := 0; i < 10; i++ {
		b := bytecode.NewBuilder("PyOp", fmt.Sprintf("do%d", i), 2)
		b.ReturnsValue()
		for j := 0; j < 1+r.Intn(2); j++ {
			emitArith(b, &r, 0, 1)
		}
		b.Iload(0).Iload(1)
		b.InvokeStatic(leaves[r.Intn(len(leaves))])
		b.Ireturn()
		pyops = append(pyops, p.AddMethod(b.MustBuild()).ID)
	}
	t1 := p.AddDispatchTable(pyops[:5]...)
	t2 := p.AddDispatchTable(pyops[5:]...)

	// eval(n): locals 1=i, 2=acc.
	b := bytecode.NewBuilder("Py", "eval", 1)
	b.ReturnsValue()
	b.Iconst(0).Istore(1)
	b.Iconst(1).Istore(2)
	b.Label("loop")
	b.Iload(1).Iload(0).If(bytecode.IF_ICMPGE, "done")
	b.Iload(2).Iload(1)
	b.Iload(1).Iconst(5).Irem()
	b.InvokeDyn(t1)
	b.Istore(2)
	b.Iload(2).Iload(1)
	b.Iload(2).Iconst(5).Irem()
	b.InvokeDyn(t2)
	b.Istore(2)
	b.Iinc(1, 1)
	b.Goto("loop")
	b.Label("done")
	b.Iload(2).Ireturn()
	eval := p.AddMethod(b.MustBuild()).ID

	b = bytecode.NewBuilder("Py", "main", 0)
	b.Iconst(int32(sc(6000, scale)))
	b.InvokeStatic(eval)
	b.Pop()
	b.Return()
	p.Entry = p.AddMethod(b.MustBuild()).ID

	return &Subject{
		Name: "jython", Program: p,
		Threads:     []vm.ThreadSpec{{Method: p.Entry}},
		Description: "dynamic dispatch runtime (invokedyn-heavy, single thread)",
	}
}

// genLuindex models document indexing: nested loops hashing terms into a
// histogram array.
func genLuindex(scale Scale) *Subject {
	r := seeded.NewStream(0x10fdec)
	p := &bytecode.Program{Entry: bytecode.NoMethod}
	var leaves []bytecode.MethodID
	for i := 0; i < 14; i++ {
		leaves = append(leaves, p.AddMethod(genLeaf("Hash", i, &r)).ID)
	}

	// index(docs): locals 1=hist, 2=d, 3=t, 4=h.
	b := bytecode.NewBuilder("Index", "index", 1)
	b.ReturnsValue()
	const buckets = 128
	b.Iconst(buckets).NewArray().Istore(1)
	b.Iconst(0).Istore(2)
	b.Label("docs")
	b.Iload(2).Iload(0).If(bytecode.IF_ICMPGE, "done")
	b.Iconst(0).Istore(3)
	b.Label("terms")
	b.Iload(3).Iconst(24).If(bytecode.IF_ICMPGE, "enddoc")
	// h = (d*31 + t*7) and mangled
	b.Iload(2).Iconst(31).Imul()
	b.Iload(3).Iconst(7).Imul()
	b.Iadd()
	b.Istore(4)
	b.Iload(4).Iconst(13).Ixor().Istore(4)
	b.Iload(4).Iconst(0x7fffffff).Iand().Iconst(buckets).Irem().Istore(4)
	// hist[h]++
	b.Iload(1).Iload(4)
	b.Iload(1).Iload(4).Iaload()
	b.Iconst(1).Iadd()
	b.Iastore()
	// occasional leaf call
	b.Iload(3).Iconst(8).Irem()
	b.If(bytecode.IFNE, "skip")
	b.Iload(2).Iload(3)
	b.InvokeStatic(leaves[r.Intn(len(leaves))])
	b.Pop()
	b.Label("skip")
	b.Iinc(3, 1)
	b.Goto("terms")
	b.Label("enddoc")
	b.Iinc(2, 1)
	b.Goto("docs")
	b.Label("done")
	b.Iload(1).Iconst(5).Iaload().Ireturn()
	index := p.AddMethod(b.MustBuild()).ID

	b = bytecode.NewBuilder("Index", "main", 0)
	b.Iconst(int32(sc(700, scale)))
	b.InvokeStatic(index)
	b.Pop()
	b.Return()
	p.Entry = p.AddMethod(b.MustBuild()).ID

	return &Subject{
		Name: "luindex", Program: p,
		Threads:     []vm.ThreadSpec{{Method: p.Entry}},
		Description: "indexing loops over histogram arrays (single thread)",
	}
}

// genLusearch is the multi-threaded search twin of luindex.
func genLusearch(scale Scale) *Subject {
	r := seeded.NewStream(0x105ea)
	p := &bytecode.Program{Entry: bytecode.NoMethod}
	var leaves []bytecode.MethodID
	for i := 0; i < 14; i++ {
		leaves = append(leaves, p.AddMethod(genLeaf("Score", i, &r)).ID)
	}

	// search(tid, queries): locals 2=idx array, 3=q, 4=i, 5=best.
	b := bytecode.NewBuilder("Search", "search", 2)
	b.ReturnsValue()
	const docs = 96
	b.Iconst(docs).NewArray().Istore(2)
	b.Iconst(0).Istore(4)
	b.Label("fill")
	b.Iload(4).Iconst(docs).If(bytecode.IF_ICMPGE, "qloop0")
	b.Iload(2).Iload(4)
	b.Iload(4).Iconst(17).Imul().Iload(0).Iadd()
	b.Iastore()
	b.Iinc(4, 1)
	b.Goto("fill")
	b.Label("qloop0")
	b.Iconst(0).Istore(3)
	b.Label("qloop")
	b.Iload(3).Iload(1).If(bytecode.IF_ICMPGE, "done")
	b.Iconst(0).Istore(5)
	b.Iconst(0).Istore(4)
	b.Label("scan")
	b.Iload(4).Iconst(docs).If(bytecode.IF_ICMPGE, "endq")
	// score = idx[i] ^ (q*3)
	b.Iload(2).Iload(4).Iaload()
	b.Iload(3).Iconst(3).Imul()
	b.Ixor()
	b.Istore(6)
	b.Iload(6).Iload(5)
	b.If(bytecode.IF_ICMPLE, "noscore")
	b.Iload(6).Istore(5)
	b.Label("noscore")
	// early exit branch
	b.Iload(5).Iconst(100000).If(bytecode.IF_ICMPGT, "endq")
	b.Iinc(4, 1)
	b.Goto("scan")
	b.Label("endq")
	b.Iload(5).Iload(3)
	b.InvokeStatic(leaves[r.Intn(len(leaves))])
	b.Pop()
	b.Iinc(3, 1)
	b.Goto("qloop")
	b.Label("done")
	b.Iload(5).Ireturn()
	search := p.AddMethod(b.MustBuild()).ID

	threads := make([]vm.ThreadSpec, 0, 4)
	for t := 0; t < 4; t++ {
		b := bytecode.NewBuilder("Search", fmt.Sprintf("thread%d", t), 0)
		b.Iconst(int32(t))
		b.Iconst(int32(sc(120, scale)))
		b.InvokeStatic(search)
		b.Pop()
		b.Return()
		threads = append(threads, vm.ThreadSpec{Method: p.AddMethod(b.MustBuild()).ID})
	}
	p.Entry = threads[0].Method

	return &Subject{
		Name: "lusearch", Program: p,
		Threads:       threads,
		Multithreaded: true,
		Description:   "multi-threaded search loops with early exits",
	}
}

// genPmd models static analysis: multi-threaded recursive AST walks with a
// node-kind switch and exceptions on malformed nodes.
func genPmd(scale Scale) *Subject {
	r := seeded.NewStream(0x9a4d)
	p := &bytecode.Program{Entry: bytecode.NoMethod}
	var leaves []bytecode.MethodID
	for i := 0; i < 20; i++ {
		leaves = append(leaves, p.AddMethod(genLeaf("Rule", i, &r)).ID)
	}

	// visit(node, depth): switch on node%5; kind 4 throws when depth big.
	b := bytecode.NewBuilder("Ast", "visit", 2)
	b.ReturnsValue()
	selfID := bytecode.MethodID(len(p.Methods))
	b.Iload(1)
	b.If(bytecode.IFLE, "leafcase")
	b.Iload(0).Iconst(5).Irem()
	b.TableSwitch(0, "Kdef", "K0", "K1", "K2", "K3", "K4")
	b.Label("K0")
	b.Iload(0).Iconst(2).Imul().Iconst(1).Iadd()
	b.Iload(1).Iconst(1).Isub()
	b.InvokeStatic(selfID)
	b.Ireturn()
	b.Label("K1")
	b.Iload(0).Iconst(3).Imul()
	b.Iload(1).Iconst(1).Isub()
	b.InvokeStatic(selfID)
	b.Iload(0).Iconst(7).Iadd()
	b.Iload(1).Iconst(2).Isub()
	b.InvokeStatic(selfID)
	b.Iadd()
	b.Ireturn()
	b.Label("K2")
	b.Iload(0).Iload(1)
	b.InvokeStatic(leaves[r.Intn(len(leaves))])
	b.Ireturn()
	b.Label("K3")
	b.Iload(0).Iconst(1).Ishr()
	b.Iload(1).Iconst(1).Isub()
	b.InvokeStatic(selfID)
	b.Ireturn()
	b.Label("K4")
	b.Iconst(11)
	b.Athrow()
	b.Label("Kdef")
	b.Iload(0).Ireturn()
	b.Label("leafcase")
	b.Iload(0).Iload(1)
	b.InvokeStatic(leaves[(r.Intn(len(leaves)))])
	b.Ireturn()
	visit := p.AddMethod(b.MustBuild()).ID

	// analyze(tid, files): try { visit } catch { count }.
	b = bytecode.NewBuilder("Ast", "analyze", 2)
	b.ReturnsValue()
	b.Iconst(0).Istore(2)
	b.Iconst(0).Istore(3)
	b.Label("files")
	b.Iload(2).Iload(1).If(bytecode.IF_ICMPGE, "done")
	b.Label("Ltry")
	b.Iload(2).Iconst(13).Imul().Iload(0).Iadd()
	b.Iconst(6)
	b.InvokeStatic(visit)
	b.Iload(3).Iadd().Istore(3)
	b.Goto("next")
	b.Label("Lcatch")
	b.Pop()
	b.Iinc(3, 1)
	b.Label("next")
	b.Iinc(2, 1)
	b.Goto("files")
	b.Label("done")
	b.Iload(3).Ireturn()
	b.Handler("Ltry", "Lcatch", "Lcatch", -1)
	analyze := p.AddMethod(b.MustBuild()).ID

	threads := make([]vm.ThreadSpec, 0, 4)
	for t := 0; t < 4; t++ {
		b := bytecode.NewBuilder("Ast", fmt.Sprintf("thread%d", t), 0)
		b.Iconst(int32(t))
		b.Iconst(int32(sc(2200, scale)))
		b.InvokeStatic(analyze)
		b.Pop()
		b.Return()
		threads = append(threads, vm.ThreadSpec{Method: p.AddMethod(b.MustBuild()).ID})
	}
	p.Entry = threads[0].Method

	return &Subject{
		Name: "pmd", Program: p,
		Threads:       threads,
		Multithreaded: true,
		Description:   "multi-threaded recursive AST walks with switches and exceptions",
	}
}

// genSunflow models a raytracer's numeric kernels: tight nested loops with
// per-iteration indirect shading calls — the highest trace generation rate
// of the subjects, as the paper observes for sunflow.
func genSunflow(scale Scale) *Subject {
	r := seeded.NewStream(0x50f10)
	p := &bytecode.Program{Entry: bytecode.NoMethod}

	var mathLeaves []bytecode.MethodID
	for i := 0; i < 8; i++ {
		mathLeaves = append(mathLeaves, p.AddMethod(genLeaf("Vec", i, &r)).ID)
	}
	var shaders []bytecode.MethodID
	for i := 0; i < 6; i++ {
		b := bytecode.NewBuilder("Shader", fmt.Sprintf("shade%d", i), 2)
		b.ReturnsValue()
		emitArith(b, &r, 0, 1)
		if i%2 == 0 {
			b.Iload(0).Iload(1)
			b.InvokeStatic(mathLeaves[r.Intn(len(mathLeaves))])
			b.Istore(0)
		}
		b.Iload(0).Iload(1)
		b.If(bytecode.IF_ICMPLT, "lt")
		b.Iload(0).Iconst(3).Ishr().Ireturn()
		b.Label("lt")
		b.Iload(1).Iconst(1).Ishl().Ireturn()
		shaders = append(shaders, p.AddMethod(b.MustBuild()).ID)
	}
	table := p.AddDispatchTable(shaders...)

	// render(frames): locals 1=x, 2=y, 3=c, 4=f.
	b := bytecode.NewBuilder("Render", "render", 1)
	b.ReturnsValue()
	b.Iconst(0).Istore(4)
	b.Iconst(0).Istore(3)
	b.Label("frame")
	b.Iload(4).Iload(0).If(bytecode.IF_ICMPGE, "done")
	b.Iconst(0).Istore(1)
	b.Label("xloop")
	b.Iload(1).Iconst(18).If(bytecode.IF_ICMPGE, "endframe")
	b.Iconst(0).Istore(2)
	b.Label("yloop")
	b.Iload(2).Iconst(18).If(bytecode.IF_ICMPGE, "endx")
	// Every fourth sample hits geometry: c += shade(x*y, c) through the
	// shader table (an indirect call, i.e. a TIP); other samples are pure
	// arithmetic with a bounds branch (TNT only).
	b.Iload(2).Iconst(3).Iand()
	b.If(bytecode.IFNE, "cheap")
	b.Iload(1).Iload(2).Imul()
	b.Iload(3)
	b.Iload(1).Iload(2).Iadd().Iconst(6).Irem()
	b.InvokeDyn(table)
	b.Iload(3).Iadd().Istore(3)
	b.Goto("step")
	b.Label("cheap")
	b.Iload(3).Iload(1).Ixor().Iconst(2).Ishl().Istore(3)
	b.Iload(3)
	b.If(bytecode.IFGE, "step")
	b.Iload(3).Ineg().Istore(3)
	b.Label("step")
	b.Iinc(2, 1)
	b.Goto("yloop")
	b.Label("endx")
	b.Iinc(1, 1)
	b.Goto("xloop")
	b.Label("endframe")
	b.Iinc(4, 1)
	b.Goto("frame")
	b.Label("done")
	b.Iload(3).Ireturn()
	render := p.AddMethod(b.MustBuild()).ID

	b = bytecode.NewBuilder("Render", "main", 0)
	b.Iconst(int32(sc(42, scale)))
	b.InvokeStatic(render)
	b.Pop()
	b.Return()
	p.Entry = p.AddMethod(b.MustBuild()).ID

	return &Subject{
		Name: "sunflow", Program: p,
		Threads:     []vm.ThreadSpec{{Method: p.Entry}},
		Description: "numeric kernels with per-iteration indirect shading calls (highest trace rate)",
	}
}
