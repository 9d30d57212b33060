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
// through a pair of queues, each consumed by a poll — the message-loop
// pattern of every backend.
func BenchmarkPingPong(b *testing.B) {
	e := NewEngine()
	req, resp := newQueuePoll(new(Queue[int]), 1), newQueuePoll(new(Queue[int]), 1)
	n := b.N
	e.Spawn("server", func(p *Proc) {
		for i := 0; i < n; i++ {
			v := req.pop(p, enginePoll)
			resp.q.Push(p, v+1)
		}
	})
	e.Spawn("client", func(p *Proc) {
		for i := 0; i < n; i++ {
			req.q.Push(p, i)
			if got := resp.pop(p, enginePoll); got != i+1 {
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

// BenchmarkLinkContention measures FIFO hand-off of a one-unit semaphore
// under load.
func BenchmarkLinkContention(b *testing.B) {
	e := NewEngine()
	r := NewSemaphore(e, "link", 1)
	const workers = 8
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		e.Spawn("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				r.Use(p, 1, 10)
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

// BenchmarkPollHit is the cost of one wait of a free poll that a store ends
// 25 ticks in, for the loop and for Proc.Poll: a setter raises the flag every
// 5 us, off the poller's 200 ns grid, and the poller consumes it. b.N is the
// number of hits.
func BenchmarkPollHit(b *testing.B) {
	for _, poll := range []struct {
		name string
		fn   pollFn
	}{{"loop", loopPoll}, {"poll", enginePoll}} {
		b.Run(poll.name, func(b *testing.B) {
			e := NewEngine()
			flag := false
			wt := gapWatch(200 * Nanosecond)
			pl := &cond{hit: func() bool { return flag }}
			e.Spawn("poll", func(p *Proc) {
				for range b.N {
					poll.fn(p, pl, wt, 0)
					flag = false
				}
				e.Stop()
			})
			e.Spawn("set", func(p *Proc) {
				p.Sleep(2500*Nanosecond + 1) // off the poller's grid
				for {
					p.Sleep(5 * Microsecond)
					flag = true
					wt.Notify()
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			err := e.Run()
			b.StopTimer()
			e.Shutdown()
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
