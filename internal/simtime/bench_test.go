package simtime

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
)

// BenchmarkEventThroughput measures the DES kernel's raw event rate — the
// figure that bounds how fast bandwidth sweeps and offload loops simulate.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("spinner", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPingPong measures two processes handing control back and forth
// through a queue — the message-loop pattern of every backend.
func BenchmarkPingPong(b *testing.B) {
	e := NewEngine()
	req := NewQueue[int](e, "req")
	resp := NewQueue[int](e, "resp")
	n := b.N
	e.Spawn("server", func(p *Proc) {
		for i := 0; i < n; i++ {
			v := req.Pop(p)
			resp.Push(v + 1)
		}
	})
	e.Spawn("client", func(p *Proc) {
		for i := 0; i < n; i++ {
			req.Push(i)
			if got := resp.Pop(p); got != i+1 {
				b.Errorf("got %d", got)
				return
			}
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceContention measures FIFO resource hand-off under load.
func BenchmarkResourceContention(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "link")
	const workers = 8
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		e.Spawn("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				r.Use(p, 10)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPollBesideSleeper measures a poller ticking beside a longer sleep
// — the shape of ring.Host.wait and the target's serve loop, where the next
// event on the heap is usually the parking process's own. This is the loop;
// BenchmarkPollMiss sets Proc.Poll beside it.
func BenchmarkPollBesideSleeper(b *testing.B) {
	e := NewEngine()
	e.MaxEvents = uint64(b.N) + 2 // the two spawn wakes
	pollBesideSleeper(e, nil, false)
	b.ResetTimer()
	if err := e.Run(); !errors.Is(err, ErrEventLimit) {
		b.Fatal(err)
	}
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkPollMiss is the cost of one missed tick of a free poll, for the
// loop and for Proc.Poll: alone; beside a sleeper 25 ticks long (the
// ring.Host.wait shape, where the engine skips what cannot hit); and
// interleaved one to one with another process's events, where every tick goes
// through the heap.
func BenchmarkPollMiss(b *testing.B) {
	for _, beside := range []struct {
		name  string
		sleep Duration
	}{{"alone", 0}, {"beside-sleeper", 5 * Microsecond}, {"interleaved", 200 * Nanosecond}} {
		for _, poll := range []struct {
			name string
			fn   pollFn
		}{{"loop", loopPoll}, {"poll", enginePoll}} {
			b.Run(beside.name+"/"+poll.name, func(b *testing.B) {
				e := NewEngine()
				pl := &cond{hit: never, gap: 200 * Nanosecond}
				e.Spawn("poll", func(p *Proc) { poll.fn(p, pl, 0) })
				ticks := uint64(b.N)
				if beside.sleep > 0 {
					e.Spawn("sleep", func(p *Proc) {
						p.Sleep(beside.sleep / 2) // off the poller's grid
						for {
							p.Sleep(beside.sleep)
						}
					})
					// The sleeper's events ride along uncounted.
					ticks += ticks * uint64(pl.gap) / uint64(beside.sleep)
				}
				e.MaxEvents = ticks + 2 // the spawn wakes
				b.ResetTimer()
				err := e.Run()
				b.StopTimer()
				e.Shutdown()
				if !errors.Is(err, ErrEventLimit) {
					b.Fatalf("Run = %v, want the event limit", err)
				}
			})
		}
	}
}

// BenchmarkQuietPollers is the shape of an eight-VE connect: eight pollers
// whose polls cost (an LHM load) and never hit, beside one bystander process
// that wakes every 10 µs and touches nothing they read. b.N is the number of
// events; ns/tick is the wall time per poll wake the engine answered. The
// pollers' questions are either a closure call each ("cheap") or cost what a
// flag poll's cost when each one searched for its word ("searched", below).
// "steady" is the connect's idle VEs: each poller's Backoff has reached its
// Max, a few poll intervals of its own, so between two of the bystander's
// wakes the engine answers every poller's wakes in one step (Engine.ahead).
func BenchmarkQuietPollers(b *testing.B) {
	for _, questions := range []struct {
		name   string
		poller func(gap Duration) Poller
	}{
		{"cheap", func(gap Duration) Poller {
			return &costed{Poller: &cond{hit: never, gap: gap}, cost: 700 * Nanosecond, take: never}
		}},
		{"searched", func(gap Duration) Poller { return newSearched(gap) }},
		{"steady", func(gap Duration) Poller {
			c := &backoffCond{hit: never, Backoff: Backoff{Base: gap, Max: 8 * gap}}
			for c.Current() < c.Max {
				c.Gap()
			}
			return &costed{Poller: c, cost: 700 * Nanosecond, take: never}
		}},
	} {
		b.Run(questions.name, func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < 8; i++ {
				pl := questions.poller(Duration(150+10*i) * Nanosecond)
				e.Spawn(fmt.Sprintf("ve%d", i), func(p *Proc) { p.Poll(pl, 0) })
			}
			e.Spawn("bystander", func(p *Proc) {
				for {
					p.Sleep(10 * Microsecond)
				}
			})
			e.MaxEvents = uint64(b.N) + 9 // the spawn wakes
			b.ReportAllocs()
			b.ResetTimer()
			err := e.Run()
			b.StopTimer()
			e.Shutdown()
			if !errors.Is(err, ErrEventLimit) {
				b.Fatalf("Run = %v, want the event limit", err)
			}
			if ticks := e.PollTicks(); ticks > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
			}
		})
	}
}

// searched is a quiet costed poller whose questions look their word up: Tick
// translates its address by a binary search over a table of registrations,
// as DMAATB.Translate does, and Hit translates it again and finds the extent
// that holds it, as mem.Memory.ReadUint64 does.
type searched struct {
	regs, extents []uint64 // sorted ends
	addr          uint64
	gap           Duration
}

func newSearched(gap Duration) *searched {
	q := &searched{addr: 5<<20 + 64, gap: gap}
	for i := uint64(1); i <= 8; i++ {
		q.regs = append(q.regs, i<<20)
		q.extents = append(q.extents, i<<20, i<<20+1<<19)
	}
	return q
}

func (q *searched) find(ends []uint64) int {
	return sort.Search(len(ends), func(i int) bool { return ends[i] > q.addr })
}

func (q *searched) Tick() (Duration, bool) { return 700 * Nanosecond, q.find(q.regs) == len(q.regs) }
func (q *searched) Hit() bool              { return q.find(q.regs) == len(q.regs) || q.find(q.extents) == 0 }
func (q *searched) Gap() Duration          { return q.gap }
func (q *searched) Misses(int64) (Duration, int64) {
	return q.gap, math.MaxInt64
}
