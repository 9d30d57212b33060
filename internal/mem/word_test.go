package mem

import (
	"bytes"
	"slices"
	"testing"

	"hamoffload/internal/simtime"
)

// hitLog is a free poll that never hits and logs its name at every Hit: a
// notify of its parked poll asks Hit once.
type hitLog struct {
	simtime.Free
	name string
	log  *[]string
}

func (h *hitLog) Hit() bool {
	*h.log = append(*h.log, h.name)
	return false
}

// storeWorld runs stores against a memory with parked polls watching words:
// base+8 twice, base+12 (which a store of base+8 touches), base+16 (which it
// does not). steps runs on a process once every poll is parked; the log
// holds, for each step, the names of the polls it notified in order.
func storeWorld(t *testing.T, steps func(m *Memory, watch func(addr Addr, name string), mark func())) (*Memory, [][]string) {
	t.Helper()
	const base = Addr(0x10_0000)
	e := simtime.NewEngine()
	m := NewMemory("test")
	if err := m.Map(base, 2*ChunkSize); err != nil {
		t.Fatal(err)
	}
	var log []string
	var marks [][]string
	var storer *simtime.Proc
	watch := func(addr Addr, name string) {
		wt := &simtime.Watch{Backoff: simtime.Backoff{Base: simtime.Second, Max: simtime.Second}}
		m.Watch(addr, wt)
		e.Spawn(name, func(p *simtime.Proc) { p.Poll(&hitLog{name: name, log: &log}, wt, 0) })
		if storer != nil {
			storer.Sleep(1) // the new poll parks, after its first Hit
			log = nil
		}
	}
	for _, w := range []struct {
		addr Addr
		name string
	}{{base + 8, "a"}, {base + 8, "b"}, {base + 12, "overlap"}, {base + 16, "neighbour"}} {
		watch(w.addr, w.name)
	}
	storer = e.Spawn("storer", func(p *simtime.Proc) {
		p.Sleep(1) // every poll has parked
		log = nil
		steps(m, watch, func() { marks, log = append(marks, log), nil })
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	return m, marks
}

// Word.Store gives the bytes and the notifies of WriteUint64: into an
// untouched chunk, after Unmap and a Map at the same address (a new
// generation), after a new Watch on the word, and with two watches on it.
func TestWordStoreIsWriteUint64(t *testing.T) {
	const base = Addr(0x10_0000)
	for _, tc := range []struct {
		name  string
		steps func(m *Memory, store func(Addr, uint64), watch func(Addr, string), mark func())
		want  [][]string // the polls each store notified: b watched base+8 last, and goes first
	}{
		{"untouched chunk", func(m *Memory, store func(Addr, uint64), _ func(Addr, string), mark func()) {
			store(base+ChunkSize+8, 1) // the second chunk: never written
			mark()
			store(base+8, 2) // the first: backed by the store, two watches on it
			mark()
			store(base+8, 3)
			mark()
		}, [][]string{nil, {"b", "a", "overlap"}, {"b", "a", "overlap"}}},
		{"generation", func(m *Memory, store func(Addr, uint64), watch func(Addr, string), mark func()) {
			store(base+8, 1)
			mark()
			if err := m.Unmap(base); err != nil {
				t.Fatal(err)
			}
			if err := m.Map(base, 2*ChunkSize); err != nil {
				t.Fatal(err)
			}
			store(base+8, 2) // the watches went with the extent
			mark()
		}, [][]string{{"b", "a", "overlap"}, nil}},
		{"new watch", func(m *Memory, store func(Addr, uint64), watch func(Addr, string), mark func()) {
			store(base+24, 1)
			mark()
			watch(base+24, "late")
			store(base+24, 2)
			mark()
		}, [][]string{nil, {"late"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bytesOf [2][]byte
			var logs [2][][]string
			for i, viaWord := range []bool{false, true} {
				m, marks := storeWorld(t, func(m *Memory, watch func(Addr, string), mark func()) {
					words := map[Addr]*Word{}
					store := func(addr Addr, v uint64) {
						if !viaWord {
							if err := m.WriteUint64(addr, v); err != nil {
								t.Fatal(err)
							}
							return
						}
						w := words[addr]
						if w == nil {
							ww := m.WordAt(addr) // resolved at the first store, kept through the rest
							w = &ww
							words[addr] = w
						}
						if err := w.Store(v); err != nil {
							t.Fatal(err)
						}
					}
					for _, a := range []Addr{base + 8, base + 24, base + ChunkSize + 8} {
						ww := m.WordAt(a)
						words[a] = &ww
					}
					tc.steps(m, store, watch, mark)
				})
				buf := make([]byte, 2*ChunkSize)
				if err := m.ReadAt(buf, base); err != nil {
					t.Fatal(err)
				}
				bytesOf[i], logs[i] = buf, marks
			}
			if !bytes.Equal(bytesOf[0], bytesOf[1]) {
				t.Error("Word.Store left other bytes than WriteUint64")
			}
			if !slices.EqualFunc(logs[0], logs[1], slices.Equal) {
				t.Errorf("notifies per store: Word.Store %q, WriteUint64 %q", logs[1], logs[0])
			}
			if !slices.EqualFunc(logs[1], tc.want, slices.Equal) {
				t.Errorf("notifies per store = %q, want %q", logs[1], tc.want)
			}
		})
	}
}

// A resolved Word stores without allocating, into a touched chunk.
func TestWordStoreZeroAlloc(t *testing.T) {
	m := NewMemory("test")
	if err := m.Map(0x1000, ChunkSize); err != nil {
		t.Fatal(err)
	}
	w := m.WordAt(0x1008)
	if err := w.Store(1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = w.Store(2) }); n != 0 {
		t.Errorf("a resolved Store allocates %v times", n)
	}
}

// An extent's watch list goes with its watches: Unmap empties it, a kept
// extent reuses it at its next Map, and a dropped one frees it for the next
// extent watched.
func TestWatchListsRecycle(t *testing.T) {
	m := NewMemory("test")
	wt := &simtime.Watch{}
	const big = (maxSpareChunks + 1) * ChunkSize // dropped at Unmap, not kept
	for i, size := range []int64{64, 64, big, 64} {
		if err := m.Map(0x1000, size); err != nil {
			t.Fatal(err)
		}
		m.Watch(0x1008, wt)
		m.Watch(0x1010, wt)
		if len(m.watches) != 1 || len(m.watches[0].words) != 2 {
			t.Fatalf("map %d: watch lists %v, want one of two words", i, m.watches)
		}
		if err := m.Unmap(0x1000); err != nil {
			t.Fatal(err)
		}
		if dropped := size == big; (m.watches[0].words == nil) != dropped || len(m.watches[0].words) != 0 {
			t.Fatalf("map %d: after Unmap the list is %v, want freed: %v", i, m.watches[0].words, dropped)
		}
	}
}

// A store's watched words, found through the marked cells, are the words a
// search of every watched word finds: for words aligned or not, next to each
// other or far apart, across adjacent extents, and for stores of any
// alignment and length.
func TestTouchedMatchesSearch(t *testing.T) {
	seed := uint64(7)
	rnd := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	for world := 0; world < 200; world++ {
		m := NewMemory("test")
		base := Addr(0x10_0000)
		sizes := []int64{int64(64 + rnd(4096)), int64(8 + rnd(256)), int64(64 + rnd(8192))}
		for i, pos := 0, base; i < len(sizes); pos, i = pos+Addr(sizes[i]), i+1 {
			if err := m.Map(pos, sizes[i]); err != nil {
				t.Fatal(err)
			}
		}
		end := base + Addr(sizes[0]+sizes[1]+sizes[2])
		wt := &simtime.Watch{}
		for range 1 + rnd(12) {
			a := base + Addr(rnd(int(end-base)))
			if rnd(2) == 0 {
				a &^= 7
			}
			m.Watch(a, wt)
		}
		for range 300 {
			addr := base + Addr(rnd(int(end-base)))
			stop := min(addr+Addr(1+rnd(64)), end)
			for _, e := range m.extents {
				if e.end() <= addr || e.addr >= stop || e.watches == 0 {
					continue
				}
				var want []Addr
				for _, wd := range m.watches[e.watches-1].words {
					if wd.addr+8 > addr && wd.addr < stop {
						want = append(want, wd.addr)
					}
				}
				var got []Addr
				for _, wd := range m.touched(e, addr, stop) {
					got = append(got, wd.addr)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("world %d: a store of [%#x, %#x) into the extent at %#x touches %#x, want %#x",
						world, addr, stop, e.addr, got, want)
				}
			}
		}
	}
}
