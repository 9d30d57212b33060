package mem

import (
	"slices"

	"hamoffload/internal/simtime"
)

// watched is one word a poll watches: a store that lands on it notifies w.
type watched struct {
	addr Addr
	w    *simtime.Watch
}

// watchList holds the words polls watch in one extent, sorted by address,
// and marks the extent's 8-byte cells, counted from its start, that hold a
// byte of one, from cell lo on. A store that covers no marked cell touches
// no watched word, and one that does is looked up in the words. A message or
// an inline result stored next to a flag shares no cell with it: dmab's data
// stores find out with no search.
type watchList struct {
	words []watched
	lo    int64    // the cell of marks' bit 0
	marks []uint64 // nil: every store is looked up; cells past a store's extent are not marked
}

// maxMarked bounds a list's marks: words that lie further apart than this
// many cells are looked up on every store into their extent.
const maxMarked = 1 << 20

// Watch makes every store that lands on the word at addr — WriteAt, a typed
// store, Word.Store, the Copy into it — notify w, until the extent that maps
// it is unmapped: how a poll parked on w learns that the flag word it polls
// has changed. The word is watched in the extent its first byte lies in; a
// word that is not mapped is watched by nobody.
func (m *Memory) Watch(addr Addr, w *simtime.Watch) {
	e, _, _ := m.piece(addr, addr)
	if e == nil {
		return
	}
	if e.watches == 0 {
		i := slices.IndexFunc(m.watches, func(wl watchList) bool { return wl.words == nil })
		if i < 0 {
			i = len(m.watches)
			m.watches = append(m.watches, watchList{})
		}
		m.watches[i].words = []watched{}
		e.watches = int32(i + 1)
	}
	wl := &m.watches[e.watches-1]
	i := 0
	for i < len(wl.words) && wl.words[i].addr < addr {
		i++
	}
	wl.words = slices.Insert(wl.words, i, watched{addr, w})
	wl.mark(e)
	m.gen++
}

// mark marks the cells of e that hold a byte of a watched word.
func (wl *watchList) mark(e *extent) {
	first, last := wl.words[0].addr, wl.words[len(wl.words)-1].addr+7
	wl.lo = int64(first-e.addr) >> 3
	n := int64(last-e.addr)>>3 - wl.lo + 1
	if n > maxMarked {
		wl.marks = nil
		return
	}
	wl.marks = slices.Grow(wl.marks[:0], int((n+63)/64))[:(n+63)/64]
	clear(wl.marks)
	for _, wd := range wl.words {
		for _, a := range [2]Addr{wd.addr, wd.addr + 7} {
			c := int64(a-e.addr)>>3 - wl.lo
			wl.marks[c>>6] |= 1 << (c & 63)
		}
	}
}

// empty drops the words and the marks, keeping their memory.
func (wl *watchList) empty() {
	clear(wl.words)
	wl.words = wl.words[:0]
	clear(wl.marks)
}

// marked reports whether a store of [addr, end), which reaches into e, covers
// a marked cell of e.
func (wl *watchList) marked(e *extent, addr, end Addr) bool {
	if wl.marks == nil {
		return true
	}
	c0 := int64(max(addr, e.addr)-e.addr)>>3 - wl.lo
	c1 := min(int64(end-1-e.addr)>>3-wl.lo, int64(len(wl.marks))*64-1)
	for c0 = max(c0, 0); c0 <= c1; c0 = c0&^63 + 64 {
		bits := wl.marks[c0>>6] >> (c0 & 63)
		if k := c1 - c0; k < 63 {
			bits &= 2<<k - 1
		}
		if bits != 0 {
			return true
		}
	}
	return false
}

// touched returns the run of e's watched words that a store of [addr, end)
// touches.
func (m *Memory) touched(e *extent, addr, end Addr) []watched {
	if e.watches == 0 {
		return nil
	}
	wl := &m.watches[e.watches-1]
	if !wl.marked(e, addr, end) {
		return nil
	}
	ws := wl.words
	lo, hi := 0, len(ws) // lo: the first word that ends past addr
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if ws[h].addr+8 > addr {
			hi = h
		} else {
			lo = h + 1
		}
	}
	hi = lo
	for hi < len(ws) && ws[hi].addr < end {
		hi++
	}
	return ws[lo:hi]
}

// notify notifies the watches of ws, in order.
func notify(ws []watched) {
	for _, wd := range ws {
		wd.w.Notify()
	}
}

// notifyStore notifies the watches of the words a finished store of
// [addr, end) touched, in address order; first is the extent that maps addr,
// nil for an empty store. A store within one extent looks at that extent's
// watched words alone.
func (m *Memory) notifyStore(first *extent, addr, end Addr) {
	if first == nil {
		return
	}
	notify(m.touched(first, addr, end))
	if end <= first.end() {
		return
	}
	for i := m.find(first.end()); i < len(m.extents) && m.extents[i].addr < end; i++ {
		notify(m.touched(m.extents[i], addr, end))
	}
}
