package pool

import (
	"slices"
	"testing"
)

type rec struct {
	Link[rec]
	v int
}

func parked(f *Free[rec, *rec]) []*rec { return slices.Collect(f.Parked()) }

// TestTakePutLIFO: Put parks a record and the next Take returns the most
// recently parked one, with what Put left in it; Take on an empty list
// returns a fresh zero record.
func TestTakePutLIFO(t *testing.T) {
	var f Free[rec, *rec]
	a, b := f.Take(), f.Take()
	if a == b || a.v != 0 || b.v != 0 {
		t.Fatalf("two Takes from an empty list: %p %+v, %p %+v; want two zero records", a, a, b, b)
	}
	a.v, b.v = 1, 2
	f.Put(a)
	f.Put(b)
	if got := f.Take(); got != b || got.v != 2 {
		t.Fatalf("Take = %p %+v, want the last parked %p", got, got, b)
	}
	if got := f.Take(); got != a {
		t.Fatalf("Take = %p, want %p", got, a)
	}
}

// TestLive counts taken records that were not put back.
func TestLive(t *testing.T) {
	var f Free[rec, *rec]
	var taken []*rec
	for i := range 3 {
		taken = append(taken, f.Take())
		if f.Live() != i+1 {
			t.Fatalf("Live() = %d after %d Takes", f.Live(), i+1)
		}
	}
	f.Put(taken[0])
	f.Put(taken[2])
	if f.Live() != 1 {
		t.Fatalf("Live() = %d with one record out", f.Live())
	}
	f.Take()
	if f.Live() != 2 {
		t.Fatalf("Live() = %d after a recycled Take", f.Live())
	}
}

// TestParkedOrder: Parked yields the next Take's record first, and a taken
// record is off the list with its link cleared.
func TestParkedOrder(t *testing.T) {
	var f Free[rec, *rec]
	rs := []*rec{f.Take(), f.Take(), f.Take()}
	for _, r := range rs {
		f.Put(r)
	}
	if got := parked(&f); !slices.Equal(got, []*rec{rs[2], rs[1], rs[0]}) {
		t.Fatalf("Parked() = %v, want %v", got, []*rec{rs[2], rs[1], rs[0]})
	}
	r := f.Take()
	if r.next != nil {
		t.Fatalf("a taken record still links to %p", r.next)
	}
	if got := parked(&f); !slices.Equal(got, []*rec{rs[1], rs[0]}) {
		t.Fatalf("Parked() after a Take = %v, want %v", got, []*rec{rs[1], rs[0]})
	}
	for range f.Parked() {
		break // an early stop must not walk on
	}
}

// TestWarmTakePutZeroAlloc: once a record is parked, Take and Put allocate
// nothing.
func TestWarmTakePutZeroAlloc(t *testing.T) {
	var f Free[rec, *rec]
	f.Put(f.Take())
	if n := testing.AllocsPerRun(1000, func() { f.Put(f.Take()) }); n != 0 {
		t.Fatalf("a warm Take+Put allocates %.1f objects, want 0", n)
	}
}
