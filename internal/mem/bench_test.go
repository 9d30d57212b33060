package mem

import "testing"

// BenchmarkWriteRead1MiB measures the sparse memory's bulk copy path, which
// carries every simulated data transfer.
func BenchmarkWriteRead1MiB(b *testing.B) {
	m := NewMemory("bench")
	const size = 1 << 20
	if err := m.Map(0, size); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, size)
	b.SetBytes(2 * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteAt(buf, 0); err != nil {
			b.Fatal(err)
		}
		if err := m.ReadAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmallWordAccess measures the flag-sized accesses the messaging
// protocols poll with.
func BenchmarkSmallWordAccess(b *testing.B) {
	m := NewMemory("bench")
	if err := m.Map(0, 4096); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteUint64(128, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if v, err := m.ReadUint64(128); err != nil || v != uint64(i) {
			b.Fatal("round trip failed")
		}
	}
}

// BenchmarkAllocFree measures the first-fit allocator under churn.
func BenchmarkAllocFree(b *testing.B) {
	a, err := NewAllocator("bench", 0, 1<<24, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := a.Alloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossMemoryCopy measures mem.Copy, the heart of every simulated
// DMA transfer.
func BenchmarkCrossMemoryCopy(b *testing.B) {
	src := NewMemory("src")
	dst := NewMemory("dst")
	const size = 1 << 20
	if err := src.Map(0, size); err != nil {
		b.Fatal(err)
	}
	if err := dst.Map(0, size); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Copy(dst, 0, src, 0, size); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapBytesCopy measures the bulk path of a simulated put: the
// caller's bytes mapped as an extent, one cross-memory copy out of them, the
// extent dropped — beside BenchmarkCrossMemoryCopy, which is the copy alone.
func BenchmarkMapBytesCopy(b *testing.B) {
	host := NewMemory("host")
	dst := NewMemory("dst")
	const size = 1 << 20
	if err := dst.Map(0, size); err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	const at = Addr(0x7f00_0000_0000)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := host.MapBytes(at, data); err != nil {
			b.Fatal(err)
		}
		if err := Copy(dst, 0, host, at, size); err != nil {
			b.Fatal(err)
		}
		if err := host.Unmap(at); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirstTouchView measures a VE buffer's first round: a fresh 16 MiB
// extent, one whole-range WriteAt (a Put's DMA), then one View (the kernel's
// ReadLocal). The store backs the extent with one array that the View hands
// out in place, so a round allocates the extent once, not chunk by chunk and
// then again when the View flattens it.
func BenchmarkFirstTouchView(b *testing.B) {
	const size = 16 << 20
	data := make([]byte, size)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMemory("bench")
		if err := m.Map(0, size); err != nil {
			b.Fatal(err)
		}
		if err := m.WriteAt(data, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := m.View(0, size); err != nil {
			b.Fatal(err)
		}
	}
}
