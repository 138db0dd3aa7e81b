package trace

import "jportal/internal/source"

// logBlockItems is the size of one item-log block (80 KiB of items). A
// power of two, so addressing a global index is a shift and a mask.
const logBlockItems = 1024

// logSpareBlocks caps how many released blocks a core keeps for reuse;
// blocks released beyond it are left to the garbage collector, so a burst
// of buffering does not pin its peak for the rest of the session.
const logSpareBlocks = 8

// itemLog is one core's append-only item store: fixed-size blocks
// addressed by a global index that never shifts. Feed copies items in
// once; windows refer to them by index range until emission copies them
// out to their thread, after which the blocks no window references any
// more are recycled.
type itemLog struct {
	// blocks are the live blocks, oldest first; blocks[0] holds the
	// indices from base. base is always a multiple of logBlockItems.
	blocks [][]source.Item
	base   int
	// end is one past the last appended index.
	end int
	// spare holds released blocks awaiting reuse.
	spare [][]source.Item
}

// at returns the item at global index g (base <= g < end).
func (l *itemLog) at(g int) *source.Item {
	g -= l.base
	return &l.blocks[g/logBlockItems][g%logBlockItems]
}

// append copies items onto the end of the log.
func (l *itemLog) append(items []source.Item) {
	for len(items) > 0 {
		off := l.end - l.base
		if off == len(l.blocks)*logBlockItems {
			l.blocks = append(l.blocks, l.newBlock())
		}
		n := copy(l.blocks[off/logBlockItems][off%logBlockItems:], items)
		items = items[n:]
		l.end += n
	}
}

func (l *itemLog) newBlock() []source.Item {
	if n := len(l.spare); n > 0 {
		b := l.spare[n-1]
		l.spare[n-1] = nil
		l.spare = l.spare[:n-1]
		return b
	}
	return make([]source.Item, logBlockItems)
}

// appendRange appends the items at global indices [lo, hi) to dst.
func (l *itemLog) appendRange(dst []source.Item, lo, hi int) []source.Item {
	for lo < hi {
		off := lo - l.base
		b := l.blocks[off/logBlockItems]
		i := off % logBlockItems
		n := min(hi-lo, logBlockItems-i)
		dst = append(dst, b[i:i+n]...)
		lo += n
	}
	return dst
}

// release recycles every block wholly below index low, the lowest index
// anything still references.
func (l *itemLog) release(low int) {
	n := 0
	for n < len(l.blocks) && l.base+logBlockItems <= low {
		if len(l.spare) < logSpareBlocks {
			l.spare = append(l.spare, l.blocks[n])
		}
		l.blocks[n] = nil
		l.base += logBlockItems
		n++
	}
	if n > 0 {
		l.blocks = l.blocks[:copy(l.blocks, l.blocks[n:])]
	}
}

// span is one run of a window's items: the log indices [lo, hi), or, when
// syn is set, a single synthetic gap item — a loss episode clipped to this
// window's bounds, which exists nowhere in the log.
type span struct {
	lo, hi int
	syn    *source.Item
}

// items returns the number of items the span stands for.
func (sp span) items() int {
	if sp.syn != nil {
		return 1
	}
	return sp.hi - sp.lo
}
