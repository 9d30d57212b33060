package mem

import (
	"encoding/binary"

	"hamoffload/internal/simtime"
)

// Typed accessors used by simulated kernels to operate on buffers in
// simulated memories. All values are little-endian, matching both the x86
// Vector Host and the VE ABI.

// WriteUint64 stores one 64-bit word at addr — the granularity of the VE's
// LHM/SHM instructions.
func (m *Memory) WriteUint64(addr Addr, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return m.WriteAt(buf[:], addr)
}

// ReadUint64 loads one 64-bit word from addr.
func (m *Memory) ReadUint64(addr Addr) (uint64, error) {
	var buf [8]byte
	if err := m.ReadAt(buf[:], addr); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Word is the 64-bit word at one address, resolved once for a loop that loads
// or stores it again and again (a flag): the extent that maps it, the chunk
// slot, the offset in that chunk and the watched words a store of it
// touches. Load reads the slot as it is then — zero after a Discard, the
// array after a flatten — and Store writes it and notifies those watches,
// with no search. Unmap and Watch move the memory's generation and a Word of
// an older one resolves again first, so a load or store after Unmap faults
// exactly as ReadUint64 or WriteUint64 does, and a store notifies a watch
// added since. A word not mapped when resolved, or one that straddles a
// chunk, goes through ReadUint64 and WriteUint64.
type Word struct {
	m       *Memory
	addr    Addr
	gen     uint64    // m.gen when resolved
	e       *extent   // nil: Load is ReadUint64, Store WriteUint64
	i       int64     // the chunk slot of e
	off     int64     // the word's offset in the chunk
	watches []watched // the run of e's watched words a store of the word touches
}

// WordAt resolves the word at addr.
func (m *Memory) WordAt(addr Addr) Word {
	w := Word{m: m, addr: addr, gen: m.gen}
	if e, off, n := m.piece(addr, addr+8); e != nil && n == 8 {
		w.e, w.i, w.off = e, off/ChunkSize, off%ChunkSize
		w.watches = m.touched(e, addr, addr+8)
	}
	return w
}

// Load reads the word: what ReadUint64 of its address returns.
func (w *Word) Load() (uint64, error) {
	if w.gen != w.m.gen {
		*w = w.m.WordAt(w.addr)
	}
	if w.e == nil {
		return w.m.ReadUint64(w.addr)
	}
	c := w.e.chunks[w.i]
	if c == nil {
		return 0, nil // untouched: reads as zero
	}
	return binary.LittleEndian.Uint64(c[w.off:]), nil
}

// Store writes v to the word: the bytes and the notifies of WriteUint64 of
// its address.
func (w *Word) Store(v uint64) error {
	if w.gen != w.m.gen {
		*w = w.m.WordAt(w.addr)
	}
	if w.e == nil {
		return w.m.WriteUint64(w.addr, v)
	}
	c := w.e.chunks[w.i]
	if c == nil {
		c = w.e.back(w.i*ChunkSize+w.off, 8)
	}
	binary.LittleEndian.PutUint64(c[w.off:], v)
	notify(w.watches)
	return nil
}

// Watch makes every store that lands on the word notify wt (Memory.Watch).
func (w *Word) Watch(wt *simtime.Watch) { w.m.Watch(w.addr, wt) }
