package vemem

import (
	"testing"
	"testing/quick"

	"hamoffload/internal/mem"
	"hamoffload/internal/units"
)

func newVE(t *testing.T) *VE {
	t.Helper()
	v, err := New("ve0", 48*units.GiB)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return v
}

func TestAllocFree(t *testing.T) {
	v := newVE(t)
	addr, err := v.Alloc(1 << 20)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if addr < HeapBase {
		t.Errorf("VEMVA %#x below heap base", addr)
	}
	if err := v.WriteAt([]byte("hbm"), addr); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := v.Free(addr); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if v.LiveAllocs() != 0 {
		t.Errorf("LiveAllocs = %d", v.LiveAllocs())
	}
}

func TestSparse48GiB(t *testing.T) {
	// The full 48 GiB address space is available even though the test
	// machine has far less RAM: only touched buffers are backed.
	v := newVE(t)
	a, err := v.Alloc((40 * units.GiB).Int64())
	if err != nil {
		t.Fatalf("40 GiB address reservation failed: %v", err)
	}
	_ = a
	if _, err := v.Alloc((20 * units.GiB).Int64()); err == nil {
		t.Error("overcommit beyond 48 GiB should fail")
	}
	if _, err := v.Alloc((8 * units.GiB).Int64()); err != nil {
		t.Fatalf("the last 8 GiB: %v", err)
	}
	if _, err := v.Alloc(64); err == nil {
		t.Error("an allocation past the full 48 GiB should fail")
	}
}

func TestDMAATBRegisterTranslate(t *testing.T) {
	v := newVE(t)
	host := mem.NewMemory("vh")
	if err := host.Map(0x7000, 4096); err != nil {
		t.Fatal(err)
	}
	vehva, err := v.ATB().Register(host, 0x7000, 4096)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	m, addr, err := v.ATB().Translate(vehva+16, 100)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if m != host || addr != 0x7010 {
		t.Fatalf("Translate = %s/%#x, want vh/0x7010", m.Name(), addr)
	}
}

func TestDMAATBFaults(t *testing.T) {
	v := newVE(t)
	host := mem.NewMemory("vh")
	if err := host.Map(0, 4096); err != nil {
		t.Fatal(err)
	}
	vehva, err := v.ATB().Register(host, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.ATB().Translate(vehva, 5000); err == nil {
		t.Error("translate beyond registration should fault")
	}
	if _, _, err := v.ATB().Translate(0xdead0000, 8); err == nil {
		t.Error("translate of unregistered VEHVA should fault")
	}
	if _, err := v.ATB().Register(host, 8192, 100); err == nil {
		t.Error("register of unmapped host range should fail")
	}
	if _, err := v.ATB().Register(host, 0, 0); err == nil {
		t.Error("zero-size register should fail")
	}
}

// Property: for any set of registrations, translating any in-range VEHVA
// offset lands at the registered base plus that offset.
func TestDMAATBTranslateProperty(t *testing.T) {
	f := func(sizes []uint16, pick uint8, off uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 16 {
			sizes = sizes[:16]
		}
		v, err := New("ve", units.GiB)
		if err != nil {
			return false
		}
		host := mem.NewMemory("vh")
		type reg struct {
			vehva, base mem.Addr
			size        int64
		}
		var regs []reg
		var cursor mem.Addr
		for _, s := range sizes {
			size := int64(s%4096 + 1)
			if err := host.Map(cursor, size); err != nil {
				return false
			}
			vehva, err := v.ATB().Register(host, cursor, size)
			if err != nil {
				return false
			}
			regs = append(regs, reg{vehva, cursor, size})
			cursor += mem.Addr(size + 64) // gap so ranges are distinct
		}
		r := regs[int(pick)%len(regs)]
		o := int64(off) % r.size
		m, addr, err := v.ATB().Translate(r.vehva+mem.Addr(o), 1)
		return err == nil && m == host && addr == r.base+mem.Addr(o)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
