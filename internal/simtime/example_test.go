package simtime_test

import (
	"fmt"
	"log"

	"hamoffload/internal/simtime"
)

// waiting is the free poll of a consumer waiting for queued items.
type waiting struct {
	simtime.Free
	q *simtime.Queue[int]
}

func (w waiting) Hit() bool { return w.q.Len() > 0 }

// Example models a tiny producer/consumer system: a producer emits an item
// every 10 µs, a consumer needs 15 µs per item, and a FIFO queue decouples
// them. The consumer takes items with TryPop and, while the queue is empty,
// polls it every microsecond: parked on a Watch that Push notifies, the poll
// costs no event until an item comes. The virtual clock makes the backlog
// arithmetic exact.
func Example() {
	eng := simtime.NewEngine()
	q := new(simtime.Queue[int])
	w := &simtime.Watch{Backoff: simtime.Backoff{Base: simtime.Microsecond, Max: simtime.Microsecond}}
	q.Notifies(w)

	eng.Spawn("producer", func(p *simtime.Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * simtime.Microsecond)
			q.Push(p, i)
		}
	})
	eng.Spawn("consumer", func(p *simtime.Proc) {
		for i := 0; i < 4; i++ {
			item, ok := q.TryPop()
			for !ok {
				p.Poll(waiting{q: q}, w, 0)
				item, ok = q.TryPop()
			}
			p.Sleep(15 * simtime.Microsecond)
			fmt.Printf("item %d done at %v\n", item, p.Now())
		}
	})

	if err := eng.Run(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// item 0 done at 25us
	// item 1 done at 40us
	// item 2 done at 55us
	// item 3 done at 70us
}

// Example_resource shows FIFO serialisation on a shared hardware unit, a
// one-unit semaphore: three requesters of a DMA engine that serves one 20 µs
// transfer at a time.
func Example_resource() {
	eng := simtime.NewEngine()
	engine := simtime.NewSemaphore(eng, "dma-engine", 1)
	for i := 0; i < 3; i++ {
		i := i
		eng.Spawn("requester", func(p *simtime.Proc) {
			engine.Use(p, 1, 20*simtime.Microsecond)
			fmt.Printf("transfer %d finished at %v\n", i, p.Now())
		})
	}
	if err := eng.Run(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// transfer 0 finished at 20us
	// transfer 1 finished at 40us
	// transfer 2 finished at 60us
}
