package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"hamoffload/internal/backend/locb"
	"hamoffload/internal/core"
	"hamoffload/internal/ham"
)

// Offloadable functions used by the tests, registered once at package level
// — the analog of C++ static initialisation (§III-C).
var (
	fnInner = core.NewFunc3[float64]("test.inner_prod",
		func(c *core.Ctx, a, b core.BufferPtr[float64], n int64) (float64, error) {
			av, err := core.ReadLocal(c, a, 0, n)
			if err != nil {
				return 0, err
			}
			bv, err := core.ReadLocal(c, b, 0, n)
			if err != nil {
				return 0, err
			}
			c.ChargeVector(2*n, 16*n, 8)
			r := 0.0
			for i := range av {
				r += av[i] * bv[i]
			}
			return r, nil
		})

	fnScale = core.NewFunc2[core.Unit]("test.scale",
		func(c *core.Ctx, buf core.BufferPtr[float64], f float64) (core.Unit, error) {
			v, err := core.ReadLocal(c, buf, 0, buf.Count)
			if err != nil {
				return core.Unit{}, err
			}
			for i := range v {
				v[i] *= f
			}
			return core.Unit{}, core.WriteLocal(c, buf, 0, v)
		})

	fnEcho = core.NewFunc1[string]("test.echo",
		func(c *core.Ctx, s string) (string, error) { return s + "/" + s, nil })

	fnWhoAmI = core.NewFunc0[int]("test.whoami",
		func(c *core.Ctx) (int, error) { return int(c.Node()), nil })

	fnBoom = core.NewFunc0[core.Unit]("test.boom",
		func(c *core.Ctx) (core.Unit, error) {
			return core.Unit{}, errTestBoom
		})

	fnSum4 = core.NewFunc4[int64]("test.sum4",
		func(c *core.Ctx, a, b, cc, d int64) (int64, error) { return a + b + cc + d, nil })
)

type boomErr struct{}

func (boomErr) Error() string { return "boom: synthetic kernel failure" }

var errTestBoom = boomErr{}

// app spins up a two-node loopback application and returns the host runtime
// plus a cleanup function.
func app(t *testing.T) (*core.Runtime, func()) {
	t.Helper()
	hb, tb, err := locb.NewPair(1 << 24)
	if err != nil {
		t.Fatal(err)
	}
	// Order matters, as with real heterogeneous binaries: register
	// everything, then instantiate both binaries.
	target := core.NewRuntime(tb, "loopback-target-arch")
	host := core.NewRuntime(hb, "loopback-host-arch")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("target Serve: %v", err)
		}
	}()
	return host, func() {
		if err := host.Finalize(); err != nil {
			t.Errorf("Finalize: %v", err)
		}
		wg.Wait()
	}
}

func TestInnerProductEndToEnd(t *testing.T) {
	// The paper's Fig. 2 example, ported: allocate, put, async offload, get.
	host, done := app(t)
	defer done()

	const n = 1024
	a := make([]float64, n)
	b := make([]float64, n)
	want := 0.0
	for i := range a {
		a[i] = float64(i)
		b[i] = 2.0
		want += a[i] * b[i]
	}
	target := core.NodeID(1)
	aT, err := core.Allocate[float64](host, target, n)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	bT, err := core.Allocate[float64](host, target, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Put(host, a, aT); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := core.Put(host, b, bT); err != nil {
		t.Fatal(err)
	}
	fut := core.Async(host, target, fnInner.Bind(aT, bT, n))
	got, err := fut.Get()
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got != want {
		t.Fatalf("inner product = %v, want %v", got, want)
	}
	if err := core.Free(host, aT); err != nil {
		t.Fatal(err)
	}
	if err := core.Free(host, bT); err != nil {
		t.Fatal(err)
	}
}

func TestSyncOffloadAndVoidResult(t *testing.T) {
	host, done := app(t)
	defer done()
	target := core.NodeID(1)
	buf, err := core.Allocate[float64](host, target, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Put(host, []float64{1, 2, 3, 4}, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Sync(host, target, fnScale.Bind(buf, 10.0)); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got := make([]float64, 4)
	if err := core.Get(host, buf, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != float64(i+1)*10 {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestStringAndMultiArgOffloads(t *testing.T) {
	host, done := app(t)
	defer done()
	target := core.NodeID(1)
	s, err := core.Sync(host, target, fnEcho.Bind("ham"))
	if err != nil || s != "ham/ham" {
		t.Fatalf("echo = %q, %v", s, err)
	}
	n, err := core.Sync(host, target, fnWhoAmI.Bind())
	if err != nil || n != 1 {
		t.Fatalf("whoami = %d, %v", n, err)
	}
	v, err := core.Sync(host, target, fnSum4.Bind(1, 2, 3, 4))
	if err != nil || v != 10 {
		t.Fatalf("sum4 = %d, %v", v, err)
	}
}

func TestFutureTestIsNonBlocking(t *testing.T) {
	host, done := app(t)
	defer done()
	fut := core.Async(host, 1, fnEcho.Bind("x"))
	// Eventually the result arrives; Test must never block.
	for !fut.Test() {
	}
	s, err := fut.Get()
	if err != nil || s != "x/x" {
		t.Fatalf("future = %q, %v", s, err)
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	host, done := app(t)
	defer done()
	_, err := core.Sync(host, 1, fnBoom.Bind())
	if err == nil || !strings.Contains(err.Error(), "synthetic kernel failure") {
		t.Fatalf("err = %v", err)
	}
	// The application survives a failed offload.
	if _, err := core.Sync(host, 1, fnWhoAmI.Bind()); err != nil {
		t.Fatalf("offload after failure: %v", err)
	}
}

func TestMustGetPanicsOnRemoteError(t *testing.T) {
	host, done := app(t)
	defer done()
	defer func() {
		if recover() == nil {
			t.Error("MustGet did not panic")
		}
	}()
	core.Async(host, 1, fnBoom.Bind()).MustGet()
}

func TestOffloadValidation(t *testing.T) {
	host, done := app(t)
	defer done()
	if _, err := core.Sync(host, 0, fnWhoAmI.Bind()); err == nil {
		t.Error("offload to self should fail")
	}
	if _, err := core.Sync(host, 99, fnWhoAmI.Bind()); err == nil {
		t.Error("offload to missing node should fail")
	}
	if _, err := core.Allocate[float64](host, 1, 0); err == nil {
		t.Error("zero-size allocate should fail")
	}
	if _, err := core.Allocate[float64](host, 1, -3); err == nil {
		t.Error("negative allocate should fail")
	}
}

func TestPutGetBounds(t *testing.T) {
	host, done := app(t)
	defer done()
	buf, err := core.Allocate[int64](host, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Put(host, make([]int64, 9), buf); err == nil {
		t.Error("oversized put accepted")
	}
	if err := core.Get(host, buf, make([]int64, 9)); err == nil {
		t.Error("oversized get accepted")
	}
	if err := core.Put(host, nil, buf); err != nil {
		t.Errorf("empty put should be a no-op: %v", err)
	}
	if err := core.Free(host, buf); err != nil {
		t.Fatal(err)
	}
	// Double free fails remotely.
	if err := core.Free(host, buf); err == nil {
		t.Error("double free accepted")
	}
	// Freeing a nil pointer is a no-op.
	if err := core.Free(host, core.BufferPtr[int64]{}); err != nil {
		t.Errorf("nil free: %v", err)
	}
}

func TestBufferPtrOffset(t *testing.T) {
	host, done := app(t)
	defer done()
	buf, err := core.Allocate[float64](host, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Put(host, []float64{1, 2, 3, 4, 5}, buf); err != nil {
		t.Fatal(err)
	}
	off, err := buf.Offset(2)
	if err != nil {
		t.Fatal(err)
	}
	if off.Count != 98 {
		t.Errorf("offset Count = %d", off.Count)
	}
	got := make([]float64, 3)
	if err := core.Get(host, off, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Errorf("offset read = %v", got)
	}
	if _, err := buf.Offset(-1); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := buf.Offset(101); err == nil {
		t.Error("out-of-range offset accepted")
	}
}

func TestCopyBetweenTargets(t *testing.T) {
	nodes, err := locb.NewN(3, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	rts := make([]*core.Runtime, 3)
	for i, n := range nodes {
		arch := "multi-target-arch"
		if i == 0 {
			arch = "multi-host-arch"
		}
		rts[i] = core.NewRuntime(n, arch)
	}
	var wg sync.WaitGroup
	for i := 1; i < 3; i++ {
		wg.Add(1)
		go func(rt *core.Runtime) {
			defer wg.Done()
			if err := rt.Serve(); err != nil {
				t.Errorf("Serve: %v", err)
			}
		}(rts[i])
	}
	host := rts[0]
	src, err := core.Allocate[int32](host, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := core.Allocate[int32](host, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	vals := []int32{10, 20, 30, 40}
	if err := core.Put(host, vals, src); err != nil {
		t.Fatal(err)
	}
	if err := core.Copy(host, src, dst, 4); err != nil {
		t.Fatalf("Copy: %v", err)
	}
	got := make([]int32, 4)
	if err := core.Get(host, dst, got); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("copy result = %v", got)
		}
	}
	if err := core.Copy(host, src, dst, 99); err == nil {
		t.Error("oversized copy accepted")
	}
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestNodeIntrospection(t *testing.T) {
	host, done := app(t)
	defer done()
	if host.ThisNode() != 0 {
		t.Error("host is not node 0")
	}
	if host.NumNodes() != 2 {
		t.Error("NumNodes != 2")
	}
	d, err := host.Ping(1)
	if err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if d.Name != "loc1" || d.Device != "target" {
		t.Errorf("descriptor = %+v", d)
	}
}

func TestHeapLeakAccounting(t *testing.T) {
	h, err := core.NewHeap("leak", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if h.LiveAllocs() != 1 {
		t.Errorf("LiveAllocs = %d", h.LiveAllocs())
	}
	if err := h.WriteAt([]byte("x"), a1); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a1); err != nil {
		t.Fatal(err)
	}
	if h.LiveAllocs() != 0 {
		t.Errorf("LiveAllocs after free = %d", h.LiveAllocs())
	}
	if err := h.ReadAt(make([]byte, 1), a1); err == nil {
		t.Error("read after free should fault")
	}
}

// TestHeapViewsFromManyGoroutines: on the wall-clock backends a kernel's view
// lives outside the Heap's lock while other goroutines allocate, view, copy
// and free on the same heap. Each goroutine works on buffers of its own —
// nothing but the heap is shared — so under -race this holds the lock to
// covering all of the shared state, the first view's re-backing included.
func TestHeapViewsFromManyGoroutines(t *testing.T) {
	h, err := core.NewHeap("views", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	const size = 300 << 10 // more than one 256 KiB chunk
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				addr, err := h.Alloc(size)
				if err != nil {
					t.Error(err)
					return
				}
				stamp := bytes.Repeat([]byte{byte(g*32 + i)}, size)
				if err := h.WriteAt(stamp[:size/2], addr); err != nil { // chunk-backed first
					t.Error(err)
				}
				v, err := h.View(addr, size)
				if err != nil {
					t.Error(err)
					return
				}
				copy(v[size/2:], stamp[size/2:]) // outside the lock, as a kernel would
				got := make([]byte, size)
				if err := h.ReadAt(got, addr); err != nil || !bytes.Equal(got, stamp) {
					t.Errorf("goroutine %d, buffer %d: ReadAt after a store through the view: %v, equal %v", g, i, err, bytes.Equal(got, stamp))
				}
				if err := h.Free(addr); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := h.LiveAllocs(); n != 0 {
		t.Errorf("%d allocations left", n)
	}
}

// Property: Put followed by Get round-trips arbitrary float64 payloads
// through target memory.
func TestPutGetRoundTripProperty(t *testing.T) {
	host, done := app(t)
	defer done()
	buf, err := core.Allocate[float64](host, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vals []float64) bool {
		if len(vals) > 512 {
			vals = vals[:512]
		}
		if err := core.Put(host, vals, buf); err != nil {
			return false
		}
		got := make([]float64, len(vals))
		if err := core.Get(host, buf, got); err != nil {
			return false
		}
		for i := range vals {
			// Compare bit patterns (NaN-safe) via equality of both or both NaN.
			if got[i] != vals[i] && (got[i] == got[i] || vals[i] == vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCompatible(t *testing.T) {
	host, done := app(t)
	defer done()
	if err := host.CheckCompatible(1); err != nil {
		t.Fatalf("matching binaries reported incompatible: %v", err)
	}
}

// skewRuns numbers the runs of TestFingerprintDetectsProgramSkew: the message
// table is process-global, so under -count=2 a fixed extra name would already
// be registered the second time round.
var skewRuns int

func TestFingerprintDetectsProgramSkew(t *testing.T) {
	// A target whose binary was instantiated BEFORE an extra registration is
	// incompatible with a host instantiated after it — the mistake the
	// fingerprint exists to catch.
	hb, tb, err := locb.NewPair(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewRuntime(tb, "skew-target")
	// The extra name sorts after every other registered message (raw
	// registration, to dodge the "fn:" prefix), so existing keys keep their
	// values (terminate still works for cleanup) while the fingerprints must
	// differ.
	skewRuns++
	ham.RegisterHandler(fmt.Sprintf("zzz.skew.extra.%d", skewRuns),
		func(env any, dec *ham.Decoder, enc *ham.Encoder) error { return nil })
	host := core.NewRuntime(hb, "skew-host")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = target.Serve()
	}()
	defer func() {
		_ = host.Finalize()
		wg.Wait()
	}()
	err = host.CheckCompatible(1)
	if err == nil {
		t.Fatal("skewed binaries reported compatible")
	}
}
