package fault

import (
	"fmt"
	"hash/fnv"
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/isa"
	"jportal/internal/meta"
	"jportal/internal/pt"
)

// syntheticSnapshot exports n small compiled methods, each with one debug
// record per native instruction.
func syntheticSnapshot(n int) *meta.Snapshot {
	snap := meta.NewSnapshot(nil)
	for i := 0; i < n; i++ {
		a := isa.NewAssembler(fmt.Sprintf("m%d", i), 0x100000+uint64(i)*0x1000)
		cm := &meta.CompiledMethod{Root: bytecode.MethodID(i), Tier: 1 + i%2}
		for pc := int32(0); pc < 6; pc++ {
			addr := a.Emit(isa.Linear, 4, 0, "")
			cm.Debug = append(cm.Debug, meta.DebugRecord{Addr: addr,
				Frames: []meta.Frame{{Method: bytecode.MethodID(i), PC: pc * 3}}})
		}
		cm.Code = a.Finish()
		snap.Export(cm)
	}
	return snap
}

// pinnedInjection is the FNV-1a hash of everything one injector produces
// at DefaultMatrix(42).Scale(4) over fixed synthetic inputs: three cores'
// items, the sideband, the snapshot and the per-class counts. Any change
// to the seeded streams, their derivation or the draw order shows here.
const pinnedInjection = 0xf4e4d2be876c773f

func TestInjectionPinned(t *testing.T) {
	in := NewInjector(DefaultMatrix(42).Scale(4), pt.Traits(), nil)
	h := fnv.New64a()
	for core := 0; core < 3; core++ {
		items := syntheticItems(2048)
		items[100] = pt.Item{Gap: true, LostBytes: 64, GapStart: 1100, GapEnd: 1200}
		for _, it := range in.Items(core, items) {
			fmt.Fprintf(h, "%d:%v\n", core, it)
		}
	}
	for _, r := range in.Sideband(syntheticSideband(300)) {
		fmt.Fprintf(h, "%v\n", r)
	}
	for _, c := range in.Snapshot(syntheticSnapshot(60)).ExportedBlobs() {
		fmt.Fprintf(h, "%#x %d\n", c.EntryAddr(), c.Root)
		for _, d := range c.Debug {
			fmt.Fprintf(h, "  %#x %v %t\n", d.Addr, d.Frames, d.Approximate)
		}
	}
	fmt.Fprintf(h, "%v\n", in.Counts()) // fmt prints maps in key order
	if got := h.Sum64(); got != pinnedInjection {
		t.Fatalf("injection output hash = %#x, want %#x (counts %v)", got, uint64(pinnedInjection), in.Counts())
	}
}
