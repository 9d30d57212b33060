// Fixture for the determinism analyzer: raw go statements and *simtime.Proc
// captured across a Spawn boundary must be flagged; engine-mediated
// concurrency using the spawned process's own Proc must not. The fixture
// imports the real simtime package (resolved from export data) so the
// Proc-type match is exercised against the true type identity.
package goroutine

import "hamoffload/internal/simtime"

// --- accepted ---

func engineSpawn(e *simtime.Engine) {
	e.Spawn("worker", func(p *simtime.Proc) {
		p.Sleep(simtime.Microsecond) // the child's own Proc: fine
	})
}

func nestedSpawn(e *simtime.Engine) {
	e.Spawn("parent", func(p *simtime.Proc) {
		p.Engine().Spawn("child", func(q *simtime.Proc) {
			q.Sleep(simtime.Nanosecond) // child uses its own q
		})
	})
}

// --- violations ---

func rawGoroutine(ch chan int) {
	go func() { ch <- 1 }() // want `raw goroutine in a DES package`
}

func rawGoCall(f func()) {
	go f() // want `raw goroutine in a DES package`
}

func capturedProc(e *simtime.Engine, outer *simtime.Proc) {
	e.Spawn("leak", func(p *simtime.Proc) {
		outer.Sleep(simtime.Microsecond) // want `captures \*simtime\.Proc "outer" from an enclosing scope`
	})
}

func capturedParent(e *simtime.Engine) {
	e.Spawn("parent", func(p *simtime.Proc) {
		p.Engine().Spawn("child", func(q *simtime.Proc) {
			p.Sleep(simtime.Nanosecond) // want `captures \*simtime\.Proc "p" from an enclosing scope`
		})
	})
}

// --- suppression ---

func suppressedGo(done chan struct{}) {
	go close(done) //lint:allow determinism fixture demonstrates suppression
}
