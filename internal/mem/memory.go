// Package mem provides the byte-addressable sparse memories and allocators
// that back the simulated Vector Host DRAM and Vector Engine HBM. Transfers
// in the simulation copy real bytes between these memories, so offloaded
// kernels compute real results. Extents are lazily chunk-backed: mapping a
// 40 GiB buffer is cheap, and only chunks that are actually written consume
// real memory, which is what makes a simulated 48 GiB HBM affordable. A bulk
// store — one that covers at least half of an extent — or a View backs the
// whole extent with one array instead, which a kernel then reads in place.
package mem

import (
	"cmp"
	"fmt"
	"slices"

	"hamoffload/internal/simtime"
)

// Addr is an address within one Memory.
type Addr uint64

// ChunkSize is the granularity of lazy backing storage: an extent is backed
// chunk by chunk, on first write, until a bulk store or a View makes it one
// array.
const ChunkSize = 256 << 10

// Memory is a sparse, byte-addressable address space made of mapped extents.
// Reads and writes may span multiple adjacent extents but fail on unmapped
// gaps, mimicking a segmentation fault.
type Memory struct {
	name    string
	extents []*extent // sorted by addr, non-overlapping
	// spare holds unmapped extents for Map to reuse, each holding no
	// reference to memory any more: a transfer that maps the caller's
	// buffer for one call (Heap.AllocBytes, then Free) allocates nothing
	// once its extent and chunk table have been built.
	spare []*extent
	// gen moves on every Unmap: a Word resolved before it resolves again.
	gen uint64
	// watches are the words that polls watch (Watch), sorted by address.
	watches []watched
}

// watched is one word a poll watches: a store that lands on it notifies w.
type watched struct {
	addr Addr
	w    *simtime.Watch
}

func byAddr(wd watched, a Addr) int { return cmp.Compare(wd.addr, a) }

// Recycling bounds: at most maxSpare unmapped extents are kept, and none
// whose chunk table outgrew maxSpareChunks (a 64 MiB extent) — a
// reservation of gigabytes keeps no table of its size alive.
const (
	maxSpare       = 8
	maxSpareChunks = 256
)

type extent struct {
	addr   Addr
	size   int64
	chunks [][]byte // ceil(size/ChunkSize) entries: nil until first write, or windows onto one array
	flat   bool     // chunks are windows onto one array of size bytes: MapBytes, a bulk store or the first View
	// watched: a poll watches a word of the extent (Memory.watches).
	watched bool
}

func (e *extent) end() Addr { return e.addr + Addr(e.size) }

// back backs the untouched chunk holding extent offset off for a store of
// rest bytes from there on (rest may run past the extent), and returns it.
// A store whose bytes from off on cover at least half of the extent — or any
// store into an extent of one chunk — backs the whole extent with one array,
// carrying in what touched chunks held: the array holds at most twice what
// the chunks the store reaches would, and a View of the extent then needs
// nothing more. Any other store backs the one chunk, so rings, shm segments
// and a huge reservation, which only see small stores, stay lazy.
func (e *extent) back(off, rest int64) []byte {
	i := off / ChunkSize
	if len(e.chunks) == 1 || 2*min(rest, e.size-off) >= e.size {
		e.flatten(make([]byte, e.size))
	} else {
		e.chunks[i] = make([]byte, min(ChunkSize, e.size-i*ChunkSize))
	}
	return e.chunks[i]
}

// flatten makes data, the extent's size long, its backing store — for
// MapBytes, for back on a bulk store, for the first View: what the chunks
// held is copied in and the chunk table becomes ChunkSize windows onto data.
// No window's capacity is clipped, so any range of the extent can be
// resliced out of the window it starts in.
func (e *extent) flatten(data []byte) {
	for i, c := range e.chunks {
		e.chunks[i] = data[i*ChunkSize : min((i+1)*ChunkSize, len(data))]
		copy(e.chunks[i], c)
	}
	e.flat = true
}

// NewMemory returns an empty address space. The name appears in errors.
func NewMemory(name string) *Memory { return &Memory{name: name} }

// Name returns the memory's name.
func (m *Memory) Name() string { return m.name }

// MappedBytes returns the total size of all mapped extents (address space,
// not resident memory).
func (m *Memory) MappedBytes() int64 {
	var n int64
	for _, e := range m.extents {
		n += e.size
	}
	return n
}

// ResidentBytes returns the real memory backing the extents: touched chunks,
// and the whole of every extent a bulk store, a View or MapBytes made one
// array.
func (m *Memory) ResidentBytes() int64 {
	var n int64
	for _, e := range m.extents {
		for _, c := range e.chunks {
			n += int64(len(c))
		}
	}
	return n
}

// find returns the index of the first extent whose end is above addr.
func (m *Memory) find(addr Addr) int {
	lo, hi := 0, len(m.extents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.extents[mid].end() > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Map creates a zero-filled extent of size bytes at addr. It fails if the
// range overlaps an existing extent or size is not positive.
func (m *Memory) Map(addr Addr, size int64) error {
	if size <= 0 {
		return fmt.Errorf("mem %s: Map size %d must be positive", m.name, size)
	}
	end := addr + Addr(size)
	if end < addr {
		return fmt.Errorf("mem %s: Map [%#x,+%d) wraps the address space", m.name, addr, size)
	}
	i := m.find(addr)
	if i < len(m.extents) && m.extents[i].addr < end {
		return fmt.Errorf("mem %s: Map [%#x,+%d) overlaps extent at %#x",
			m.name, addr, size, m.extents[i].addr)
	}
	e := m.takeExtent((size + ChunkSize - 1) / ChunkSize)
	e.addr, e.size = addr, size
	m.extents = append(m.extents, nil)
	copy(m.extents[i+1:], m.extents[i:])
	m.extents[i] = e
	return nil
}

// takeExtent returns an unmapped extent with a chunk table of nChunks nil
// entries: the newest spare one, its table grown if it is too short, or a
// new one.
func (m *Memory) takeExtent(nChunks int64) *extent {
	n := len(m.spare)
	if n == 0 {
		return &extent{chunks: make([][]byte, nChunks)}
	}
	e := m.spare[n-1]
	m.spare[n-1] = nil
	m.spare = m.spare[:n-1]
	if int64(cap(e.chunks)) < nChunks {
		e.chunks = make([][]byte, nChunks)
	}
	e.chunks = e.chunks[:nChunks]
	return e
}

// MapBytes maps data itself at addr, uncopied: the chunk table is ChunkSize
// windows onto data, so a store to the range lands in data and a load reads
// it — a caller's buffer as the end point of a simulated DMA. The alias lasts
// until Unmap. It fails as Map does.
func (m *Memory) MapBytes(addr Addr, data []byte) error {
	if err := m.Map(addr, int64(len(data))); err != nil {
		return err
	}
	m.extents[m.find(addr)].flatten(data)
	return nil
}

// Unmap removes the extent starting exactly at addr and lets go of its
// backing store — the chunks, or the caller's bytes MapBytes put there. The
// emptied extent is kept for a later Map.
func (m *Memory) Unmap(addr Addr) error {
	i := m.find(addr)
	if i >= len(m.extents) || m.extents[i].addr != addr {
		return fmt.Errorf("mem %s: Unmap: no extent starts at %#x", m.name, addr)
	}
	e := m.extents[i]
	m.extents = slices.Delete(m.extents, i, i+1) // zeroes the vacated slot
	lo, _ := slices.BinarySearchFunc(m.watches, e.addr, byAddr)
	hi, _ := slices.BinarySearchFunc(m.watches, e.end(), byAddr)
	m.watches = slices.Delete(m.watches, lo, hi)
	e.watched = false
	clear(e.chunks)
	e.flat = false
	m.gen++
	if len(m.spare) < maxSpare && cap(e.chunks) <= maxSpareChunks {
		m.spare = append(m.spare, e)
	}
	return nil
}

// Mapped reports whether the whole range [addr, addr+size) is mapped.
func (m *Memory) Mapped(addr Addr, size int64) bool { return m.checkMapped(addr, size) == nil }

// Discard lets go of every extent's backing store — chunks, arrays and the
// views onto them: the ranges stay mapped and read as zero again. It
// notifies no Watch: a word that reads zero holds no message.
func (m *Memory) Discard() {
	for _, e := range m.extents {
		clear(e.chunks)
		e.flat = false
	}
}

// firstGap returns the lowest unmapped address in [addr, end), if there is
// one.
func (m *Memory) firstGap(addr, end Addr) (Addr, bool) {
	for pos := addr; pos < end; {
		i := m.find(pos)
		if i >= len(m.extents) || m.extents[i].addr > pos {
			return pos, true
		}
		pos = m.extents[i].end()
	}
	return 0, false
}

// ReadAt fills p from the bytes at addr. The range may span extents but must
// be fully mapped; untouched chunks read as zero.
func (m *Memory) ReadAt(p []byte, addr Addr) error {
	end, err := m.rangeEnd(addr, int64(len(p)))
	if err != nil {
		return err
	}
	for pos := addr; pos < end; {
		e, off, n := m.piece(pos, end)
		if e == nil {
			return m.faultError(pos, addr, int64(len(p)))
		}
		dst := p[pos-addr:][:n]
		if c := e.chunks[off/ChunkSize]; c != nil {
			copy(dst, c[off%ChunkSize:])
		} else {
			clear(dst)
		}
		pos += Addr(n)
	}
	return nil
}

// WriteAt stores p at addr. The range may span extents but must be fully
// mapped.
func (m *Memory) WriteAt(p []byte, addr Addr) error { return m.store(p, addr, int64(len(p))) }

// store writes the n bytes of p — or, with p nil, n zero bytes — at addr.
func (m *Memory) store(p []byte, addr Addr, n int64) error {
	end, err := m.rangeEnd(addr, n)
	if err != nil {
		return err
	}
	watched := false
	for pos := addr; pos < end; {
		dst, e := m.storeSpan(pos, end)
		if dst == nil {
			return m.faultError(pos, addr, n)
		}
		if p != nil {
			copy(dst, p[pos-addr:])
		} else {
			clear(dst)
		}
		watched = watched || e.watched
		pos += Addr(len(dst))
	}
	if watched {
		m.notify(addr, end)
	}
	return nil
}

// Watch makes every store that lands on the word at addr — WriteAt, a typed
// store, the Copy into it — notify w, until the extent that maps it is
// unmapped: how a poll parked on w learns that the flag word it polls has
// changed. A word that is not mapped is watched by nobody.
func (m *Memory) Watch(addr Addr, w *simtime.Watch) {
	if e, _, _ := m.piece(addr, addr); e != nil {
		e.watched = true
		i, _ := slices.BinarySearchFunc(m.watches, addr, byAddr)
		m.watches = slices.Insert(m.watches, i, watched{addr, w})
	}
}

// watchFrom returns the index of the first watched word that ends past addr.
func (m *Memory) watchFrom(addr Addr) int {
	j, k := 0, len(m.watches)
	for j < k {
		h := int(uint(j+k) >> 1)
		if m.watches[h].addr+8 > addr {
			k = h
		} else {
			j = h + 1
		}
	}
	return j
}

// notify notifies the watches of the words a store of [addr, end) touched.
func (m *Memory) notify(addr, end Addr) {
	for j := m.watchFrom(addr); j < len(m.watches) && m.watches[j].addr < end; j++ {
		m.watches[j].w.Notify()
	}
}

// storeSpan returns the memory a store of [pos, end) writes first: from pos
// up to the next chunk boundary, the extent's end or end, backed on the way
// if it was untouched (back sees the whole rest of the store), and the extent
// it lies in. It is nil when pos is unmapped.
func (m *Memory) storeSpan(pos, end Addr) ([]byte, *extent) {
	e, off, n := m.piece(pos, end)
	if e == nil {
		return nil, nil
	}
	c := e.chunks[off/ChunkSize]
	if c == nil {
		c = e.back(off, int64(end-pos))
	}
	return c[off%ChunkSize:][:n], e
}

// rangeEnd returns addr+n, failing when the range wraps the address space.
func (m *Memory) rangeEnd(addr Addr, n int64) (Addr, error) {
	end := addr + Addr(n)
	if end < addr {
		return 0, m.wrapError(addr, n)
	}
	return end, nil
}

// piece returns the extent mapping pos, pos's offset within it, and how many
// bytes of [pos, end) follow without crossing a chunk boundary. The extent
// is nil when pos is unmapped.
func (m *Memory) piece(pos, end Addr) (e *extent, off, n int64) {
	i := m.find(pos)
	if i >= len(m.extents) || m.extents[i].addr > pos {
		return nil, 0, 0
	}
	e = m.extents[i]
	off = int64(pos - e.addr)
	n = min(ChunkSize-off%ChunkSize, e.size-off, int64(end-pos))
	return e, off, n
}

// checkMapped fails with the fault a ReadAt or WriteAt of [addr, addr+n)
// would report, without touching a byte.
func (m *Memory) checkMapped(addr Addr, n int64) error {
	end, err := m.rangeEnd(addr, n)
	if err != nil {
		return err
	}
	if pos, gap := m.firstGap(addr, end); gap {
		return m.faultError(pos, addr, n)
	}
	return nil
}

// An access outside the mapped extents is the simulated segmentation fault:
// a bug in the caller, not traffic, so rendering it stays off the hot path.

func (m *Memory) faultError(pos, addr Addr, n int64) error {
	return fmt.Errorf("mem %s: fault at %#x (range [%#x,+%d))", m.name, pos, addr, n)
}

func (m *Memory) wrapError(addr Addr, n int64) error {
	return fmt.Errorf("mem %s: access [%#x,+%d) wraps the address space", m.name, addr, n)
}

// View returns the memory of [addr, addr+n) itself, which must lie in one
// extent (a heap allocation is one): stores through the slice and every
// other access to the range see each other until Unmap. An extent a bulk
// store or MapBytes made one array is viewed without allocating; the first
// view of any other backs all of it with one array. That array never moves,
// so views taken before and after each other stay attached and a viewed
// extent is fully resident.
func (m *Memory) View(addr Addr, n int64) ([]byte, error) {
	if n < 0 {
		return nil, m.wrapError(addr, n)
	}
	if n == 0 {
		return nil, nil
	}
	e, off, _ := m.piece(addr, addr)
	if e == nil || n > e.size-off {
		if err := m.checkMapped(addr, n); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("mem %s: View [%#x,+%d) crosses the extent boundary at %#x", m.name, addr, n, e.end())
	}
	if !e.flat {
		e.flatten(make([]byte, e.size))
	}
	co := off % ChunkSize
	return e.chunks[off/ChunkSize][co : co+n : co+n], nil
}

// Copy moves n bytes from src/srcAddr to dst/dstAddr, possibly between
// different memories. Overlapping same-memory copies behave like memmove.
// Either range faulting fails the copy before a byte moves.
//
// Non-overlapping ranges — every simulated DMA, which copies between two
// memories — move piece by piece straight from the source's backing store
// into the destination's, with no bounce buffer whatever the size, and back
// untouched destination chunks as a WriteAt of the whole range would. Only
// an overlapping copy within one memory stages its source first.
func Copy(dst *Memory, dstAddr Addr, src *Memory, srcAddr Addr, n int64) error {
	if n == 0 {
		return nil
	}
	if n < 0 {
		return negativeCopyError(n)
	}
	if err := src.checkMapped(srcAddr, n); err != nil {
		return err
	}
	if err := dst.checkMapped(dstAddr, n); err != nil {
		return err
	}
	if dst == src && dstAddr < srcAddr+Addr(n) && srcAddr < dstAddr+Addr(n) {
		return copyOverlapping(dst, dstAddr, srcAddr, n)
	}
	end := dstAddr + Addr(n)
	watched := false
	for pos := dstAddr; pos < end; {
		// The destination first: backing it may flatten the extent the
		// source lies in, and the source's chunk is read after that.
		d, de := dst.storeSpan(pos, end)
		watched = watched || de.watched
		from := srcAddr + (pos - dstAddr)
		e, off, sn := src.piece(from, from+Addr(len(d)))
		if c := e.chunks[off/ChunkSize]; c != nil {
			copy(d[:sn], c[off%ChunkSize:])
		} else {
			clear(d[:sn]) // an untouched source chunk reads as zeros
		}
		pos += Addr(sn)
	}
	if watched {
		dst.notify(dstAddr, end)
	}
	return nil
}

// copyOverlapping is memmove within one memory. It streams through a bounded
// buffer so a 256 MiB move does not allocate 256 MiB of real transient
// memory, front to back or — when the destination lies ahead of the source,
// where that order would clobber unread bytes — back to front.
func copyOverlapping(m *Memory, dstAddr, srcAddr Addr, n int64) error {
	const stride = 4 * ChunkSize
	backwards := dstAddr > srcAddr
	buf := make([]byte, min(n, stride))
	for off := int64(0); off < n; off += stride {
		chunk := min(n-off, stride)
		pos := off
		if backwards {
			pos = n - off - chunk
		}
		b := buf[:chunk]
		if err := m.ReadAt(b, srcAddr+Addr(pos)); err != nil {
			return err
		}
		if err := m.WriteAt(b, dstAddr+Addr(pos)); err != nil {
			return err
		}
	}
	return nil
}

func negativeCopyError(n int64) error {
	return fmt.Errorf("mem: Copy negative length %d", n)
}

// PageCount returns how many pages of the given size the range
// [addr, addr+n) touches — the unit of work for DMA address translation.
func PageCount(addr Addr, n int64, pageSize int64) int64 {
	if n <= 0 || pageSize <= 0 {
		return 0
	}
	first := int64(addr) / pageSize
	last := (int64(addr) + n - 1) / pageSize
	return last - first + 1
}
