package simtime

import "math"

// The order of same-instant events is the order in which they were queued:
// seq. Plain wakes take seqs from a counter, two apart. A parked poll's wake
// stands for the wake the loop queued while it ran the grid point before
// (Proc.Poll), so it takes an odd seq: past every seq the runs before that
// point's run handed out, short of those of the runs after it. Where the
// point falls among the runs of its instant follows from its own seq in
// turn, found the same way, back to the park's first grid point, whose seq
// the park took from the counter. Two points between the same two runs run
// in the order of their points before. The runs of an instant are read from
// the delivery history, so a wake's seq is found once its point's instant is
// over: at once for a Notify's wake, whose point before is at or before now;
// for a wake queued at the park, when the engine reaches the end of that
// instant (reasonPlace).
//
// The history keeps every run at or after the first grid point of a parked
// poll (Engine.need), so that the runs of any instant a wake's place is found
// at are all in it: when the oldest run it holds is one of those, the parked
// polls settle first (keepHistory), and the history grows only if a poll
// still needs that run.

// histLen is the delivery history's first size, a power of two.
const histLen = 256

// delivered is one wake in the delivery history: its time and seq, and the
// seq its run handed out first. A parked poll's wake that took an odd seq
// keeps the grid point it stands for beside it, in Engine.points.
type delivered struct {
	at         Time
	seq, first uint64
}

// point is grid point k of g.
type point struct {
	g grid
	k int64
}

// deliver records ev in the delivery history; the clock still stands at the
// run before.
//
//hot:path
func (e *Engine) deliver(ev *event) {
	i := e.nhist & uint64(len(e.hist)-1)
	if e.nhist >= uint64(len(e.hist)) && e.hist[i].at >= e.need {
		e.keepHistory()
		i = e.nhist & uint64(len(e.hist)-1)
	}
	e.hist[i] = delivered{at: ev.at, seq: ev.seq, first: e.seq + 2}
	if ev.seq&1 == 1 {
		e.points[i] = point{ev.w.grid, ev.w.dueK}
	}
	e.nhist++
}

// keepHistory runs where the oldest run in the full history may place a
// parked poll's wake. Each parked poll that needs it settles if it can, so
// that it needs only the runs from its next tick on; if one still needs the
// oldest, the history doubles.
//
//hot:cold
func (e *Engine) keepHistory() {
	oldest := e.rec(e.nhist).at
	e.need = noWake
	for p := e.first; p != nil; p = p.next {
		w := &p.scratch
		if w.watch == nil || w.woken {
			continue
		}
		if w.next <= oldest {
			if k, _, _, ok := w.pending(endPoint); ok && e.untied(w, k) {
				w.settle(k)
			}
		}
		e.need = min(e.need, w.next)
	}
	if oldest < e.need {
		return
	}
	n := uint64(len(e.hist))
	hist, points := make([]delivered, 2*n), make([]point, 2*n)
	for i := range hist {
		hist[i].at = math.MinInt64 // the ranks it never held: before every run
	}
	for r := e.nhist - n; r < e.nhist; r++ {
		hist[r%(2*n)], points[r%(2*n)] = e.hist[r%n], e.points[r%n]
	}
	e.hist, e.points = hist, points
}

// untied reports whether w may settle to grid point k (settle): whether the
// tick its park would go on from comes after now, at an instant at which no
// other parked poll has a grid point. A tie of two polls' points is broken
// by their points before (tieBefore), which a settled park no longer has;
// a poll that parks later does not tie with it.
func (e *Engine) untied(w *waiter, k int64) bool {
	_, tick := w.restart(k)
	at := w.at(tick)
	if tick == 0 || at <= e.now {
		return false
	}
	for p := e.first; p != nil; p = p.next {
		o := &p.scratch
		if o == w || o.watch == nil || o.woken {
			continue
		}
		for _, kind := range [...]int{tickPoint, endPoint} {
			if _, t, _, ok := o.find(at, o.k0, kind); ok && t == at {
				return false
			}
		}
	}
	return true
}

// wake returns the event of w's wake at grid point k, at at, whose point
// before is at prev: with the seq of the loop's wake if that point has had
// its instant, else a reasonPlace event at the end of that instant.
func (w *waiter) wake(k int64, at, prev Time) event {
	if k <= w.k0 {
		return event{at: at, seq: w.seq0, w: w, rsn: reasonWatch}
	}
	e := w.p.eng
	if prev > e.now || (prev == e.now && !e.ranBefore(&w.grid, k-1)) {
		return event{at: prev, seq: ^uint64(0) - w.seq0, w: w, rsn: reasonPlace}
	}
	return event{at: at, seq: e.seqAfter(&w.grid, k-1, prev), w: w, rsn: reasonWatch}
}

// seqOf returns the seq of the loop's wake at grid point k of g, whose point
// before has had its instant.
func (e *Engine) seqOf(g *grid, k int64) uint64 {
	if k <= g.k0 {
		return g.seq0
	}
	return e.seqAfter(g, k-1, g.at(k-1))
}

// seqAfter returns the seq of the wake that the run of grid point k of g, at
// at, would have queued: just past the seqs of the runs before it, short of
// those of the runs after it.
func (e *Engine) seqAfter(g *grid, k int64, at Time) uint64 {
	lo, hi := e.histSpan()
	// The runs of the instant, [i, j) in delivery order, and the first of
	// them that ran after point k would have.
	i := e.histAfter(lo, hi, at-1)
	if i < hi && e.rec(i).at == at {
		j := e.histAfter(i, hi, at)
		seq := e.seqOf(g, k)
		for i < j && e.recordBefore(i, g, k, seq) {
			i++
		}
	}
	if i == hi {
		return e.seq + 1
	}
	return e.rec(i).first - 1
}

// rec returns delivery r of the history.
func (e *Engine) rec(r uint64) *delivered { return &e.hist[r&uint64(len(e.hist)-1)] }

// histSpan returns the delivery ranks the history holds, [lo, hi).
func (e *Engine) histSpan() (lo, hi uint64) {
	if n := uint64(len(e.hist)); e.nhist > n {
		lo = e.nhist - n
	}
	return lo, e.nhist
}

// histAfter returns the first rank in [lo, hi) delivered after t, or hi.
func (e *Engine) histAfter(lo, hi uint64, t Time) uint64 {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if e.rec(mid).at > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// recordBefore reports whether delivery r, at the instant of grid point k of
// g, whose seq is seq, ran before that point would have.
func (e *Engine) recordBefore(r uint64, g *grid, k int64, seq uint64) bool {
	d := e.rec(r)
	if d.seq != seq || seq&1 == 0 {
		return d.seq < seq
	}
	pt := &e.points[r&uint64(len(e.points)-1)] // two odd seqs: parked polls' points
	return e.tieBefore(&pt.g, pt.k, g, k)
}

// ranBefore reports whether the loop would have run grid point k of g, at
// now, before the last wake delivered.
func (e *Engine) ranBefore(g *grid, k int64) bool {
	r := e.nhist - 1
	return e.rec(r).at == e.now && !e.recordBefore(r, g, k, e.seqOf(g, k))
}

// firstOfTie puts at the head of the heap, of the parked polls' wakes that
// share its time and seq, the one the loop would have run first. Events of
// one key may swap places without breaking the heap.
func (e *Engine) firstOfTie() {
	h := e.eq
	for j := 1; j < len(h); j++ {
		if h[j].at == h[0].at && h[j].seq == h[0].seq &&
			e.tieBefore(&h[j].w.grid, h[j].w.dueK, &h[0].w.grid, h[0].w.dueK) {
			h[0], h[j] = h[j], h[0]
		}
	}
}

// tieBefore orders grid point ka of a and kb of b, which took one seq: queued
// between the same two runs, they run in the order of their points before.
func (e *Engine) tieBefore(a *grid, ka int64, b *grid, kb int64) bool {
	for ka > a.k0 && kb > b.k0 {
		ka, kb = ka-1, kb-1
		if ta, tb := a.at(ka), b.at(kb); ta != tb {
			return ta < tb
		}
		if sa, sb := e.seqOf(a, ka), e.seqOf(b, kb); sa != sb {
			return sa < sb
		}
	}
	return a.seq0 < b.seq0
}
