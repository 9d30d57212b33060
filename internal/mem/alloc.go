package mem

import (
	"fmt"
	"sort"
)

// Allocator hands out address ranges from a fixed arena using a first-fit
// free list with coalescing. It only manages addresses; callers pair it with
// a Memory to actually map the ranges.
type Allocator struct {
	name  string
	base  Addr
	size  int64
	align int64
	free  []span // sorted by addr, coalesced
	live  map[Addr]int64
}

type span struct {
	addr Addr
	size int64
}

// NewAllocator manages [base, base+size) and aligns every allocation to
// align bytes (which must be a positive power of two).
func NewAllocator(name string, base Addr, size, align int64) (*Allocator, error) {
	if size <= 0 {
		return nil, fmt.Errorf("alloc %s: arena size %d must be positive", name, size)
	}
	if align <= 0 || align&(align-1) != 0 {
		return nil, fmt.Errorf("alloc %s: alignment %d must be a positive power of two", name, align)
	}
	return &Allocator{
		name:  name,
		base:  base,
		size:  size,
		align: align,
		free:  []span{{addr: base, size: size}},
		live:  make(map[Addr]int64),
	}, nil
}

// Alloc reserves size bytes and returns the base address.
func (a *Allocator) Alloc(size int64) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("alloc %s: size %d must be positive", a.name, size)
	}
	want := (size + a.align - 1) &^ (a.align - 1)
	for i, s := range a.free {
		// The arena base is aligned by construction and spans only split at
		// aligned sizes, so every free span base is aligned.
		if s.size >= want {
			addr := s.addr
			if s.size == want {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{addr: s.addr + Addr(want), size: s.size - want}
			}
			a.live[addr] = want
			return addr, nil
		}
	}
	return 0, fmt.Errorf("alloc %s: out of memory (%d bytes requested, %d free)",
		a.name, want, a.FreeBytes())
}

// Free releases the allocation starting at addr.
func (a *Allocator) Free(addr Addr) error {
	size, ok := a.live[addr]
	if !ok {
		return fmt.Errorf("alloc %s: Free(%#x): not an allocated base address", a.name, addr)
	}
	delete(a.live, addr)
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > addr })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{addr: addr, size: size}
	// Coalesce with successor then predecessor.
	if i+1 < len(a.free) && a.free[i].addr+Addr(a.free[i].size) == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].addr+Addr(a.free[i-1].size) == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return nil
}

// SizeOf returns the (aligned) size of the live allocation at addr.
func (a *Allocator) SizeOf(addr Addr) (int64, bool) {
	s, ok := a.live[addr]
	return s, ok
}

// LiveCount returns the number of live allocations.
func (a *Allocator) LiveCount() int { return len(a.live) }

// FreeBytes returns the total free space (which may be fragmented).
func (a *Allocator) FreeBytes() int64 {
	var n int64
	for _, s := range a.free {
		n += s.size
	}
	return n
}

// CheckInvariants verifies the free list is sorted, within the arena,
// coalesced, and that free+live sizes account for the whole arena. It is
// used by tests and property checks.
func (a *Allocator) CheckInvariants() error {
	var prevEnd Addr = a.base
	var freeSum int64
	for i, s := range a.free {
		if s.size <= 0 {
			return fmt.Errorf("alloc %s: free span %d has size %d", a.name, i, s.size)
		}
		if s.addr < prevEnd {
			return fmt.Errorf("alloc %s: free span %d overlaps or unsorted", a.name, i)
		}
		if i > 0 && s.addr == prevEnd {
			return fmt.Errorf("alloc %s: free spans %d and %d not coalesced", a.name, i-1, i)
		}
		if s.addr+Addr(s.size) > a.base+Addr(a.size) {
			return fmt.Errorf("alloc %s: free span %d outside arena", a.name, i)
		}
		prevEnd = s.addr + Addr(s.size)
		freeSum += s.size
	}
	var liveSum int64
	for _, sz := range a.live {
		liveSum += sz
	}
	if freeSum+liveSum != a.size {
		return fmt.Errorf("alloc %s: free %d + live %d != arena %d", a.name, freeSum, liveSum, a.size)
	}
	return nil
}
