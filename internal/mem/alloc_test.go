package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newAlloc(t *testing.T, base Addr, size, align int64) *Allocator {
	t.Helper()
	a, err := NewAllocator("test", base, size, align)
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	return a
}

func TestAllocBasic(t *testing.T) {
	a := newAlloc(t, 0x1000, 1024, 8)
	p1, err := a.Alloc(100)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if p1 != 0x1000 {
		t.Errorf("first alloc at %#x, want 0x1000", p1)
	}
	p2, err := a.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if p2%8 != 0 {
		t.Errorf("alloc %#x not 8-aligned", p2)
	}
	if p2 != p1+104 { // 100 rounded up to 104
		t.Errorf("second alloc at %#x, want %#x", p2, p1+104)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := newAlloc(t, 0, 256, 8)
	if _, err := a.Alloc(256); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); err == nil {
		t.Error("alloc from full arena should fail")
	}
}

func TestFreeCoalescing(t *testing.T) {
	a := newAlloc(t, 0, 300, 4)
	p1, _ := a.Alloc(100)
	p2, _ := a.Alloc(100)
	p3, _ := a.Alloc(100)
	// Free middle, then neighbours; afterwards one 300-byte alloc must fit.
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p3); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(300); err != nil {
		t.Errorf("coalesced arena rejected full-size alloc: %v", err)
	}
}

func TestFreeErrors(t *testing.T) {
	a := newAlloc(t, 0, 256, 8)
	p, _ := a.Alloc(16)
	if err := a.Free(p + 8); err == nil {
		t.Error("Free of interior address should fail")
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err == nil {
		t.Error("double Free should fail")
	}
}

func TestAllocRejectsBadArgs(t *testing.T) {
	if _, err := NewAllocator("x", 0, 0, 8); err == nil {
		t.Error("zero-size arena accepted")
	}
	if _, err := NewAllocator("x", 0, 100, 3); err == nil {
		t.Error("non-power-of-two alignment accepted")
	}
	a := newAlloc(t, 0, 256, 8)
	if _, err := a.Alloc(0); err == nil {
		t.Error("zero-size alloc accepted")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Error("negative alloc accepted")
	}
}

func TestSizeOfAndCounters(t *testing.T) {
	a := newAlloc(t, 0, 1024, 16)
	p, _ := a.Alloc(20)
	if sz, ok := a.SizeOf(p); !ok || sz != 32 {
		t.Errorf("SizeOf = %d,%v want 32,true", sz, ok)
	}
	if a.LiveCount() != 1 {
		t.Errorf("LiveCount = %d", a.LiveCount())
	}
	if a.FreeBytes() != 1024-32 {
		t.Errorf("FreeBytes = %d", a.FreeBytes())
	}
	if a.size != 1024 {
		t.Errorf("arena size = %d", a.size)
	}
}

// Property: arbitrary interleavings of Alloc and Free never violate the
// allocator invariants, never hand out overlapping ranges, and freeing
// everything restores the whole arena.
func TestAllocatorFuzzProperty(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := NewAllocator("fuzz", 0x10000, 1<<16, 64)
		if err != nil {
			return false
		}
		var livePtrs []Addr
		for _, op := range ops {
			if op%3 != 0 || len(livePtrs) == 0 {
				size := int64(op%2048 + 1)
				p, err := a.Alloc(size)
				if err == nil {
					// Overlap check against every live allocation.
					psz, _ := a.SizeOf(p)
					for _, q := range livePtrs {
						qsz, _ := a.SizeOf(q)
						if p < q+Addr(qsz) && q < p+Addr(psz) {
							return false
						}
					}
					livePtrs = append(livePtrs, p)
				}
			} else {
				i := rng.Intn(len(livePtrs))
				if a.Free(livePtrs[i]) != nil {
					return false
				}
				livePtrs = append(livePtrs[:i], livePtrs[i+1:]...)
			}
			if a.CheckInvariants() != nil {
				return false
			}
		}
		for _, p := range livePtrs {
			if a.Free(p) != nil {
				return false
			}
		}
		return a.FreeBytes() == 1<<16 && a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
