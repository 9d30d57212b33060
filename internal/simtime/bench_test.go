package simtime

import (
	"errors"
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
