package core_test

import (
	"strings"
	"testing"

	"hamoffload/internal/backend/locb"
	"hamoffload/internal/core"
)

// Behavioural tests of message batching over the loopback backend: flush
// policies, ordering, error isolation and the disabled-policy fallback.
// The wire-format edge cases live in batch_wire_test.go, the cross-backend
// contract in internal/backend/conformance, and the retry/dedup interaction
// in both conformance and the machine chaos tests.

func TestBatchDisabledFallsBackToAsync(t *testing.T) {
	host, done := app(t)
	defer done()
	if host.Batching().Enabled() {
		t.Fatal("fresh runtime has batching armed")
	}
	b := core.NewBatcher(host)
	f := core.BatchAdd(b, 1, fnEcho.Bind("plain"))
	// With the zero policy BatchAdd degrades to Async: nothing queues and no
	// flush is needed.
	if n := b.Pending(1); n != 0 {
		t.Fatalf("disabled batcher queued %d messages", n)
	}
	if s, err := f.Get(); err != nil || s != "plain/plain" {
		t.Fatalf("fallback future = %q, %v", s, err)
	}
}

func TestBatchCountFlush(t *testing.T) {
	host, done := app(t)
	defer done()
	host.SetBatching(core.BatchPolicy{MaxMessages: 4})
	b := core.NewBatcher(host)
	var futs []*core.Future[string]
	for i := 0; i < 3; i++ {
		futs = append(futs, core.BatchAdd(b, 1, fnEcho.Bind("q")))
		if n := b.Pending(1); n != i+1 {
			t.Fatalf("after %d adds Pending = %d", i+1, n)
		}
	}
	// The fourth message reaches MaxMessages and ships the frame.
	futs = append(futs, core.BatchAdd(b, 1, fnEcho.Bind("q")))
	if n := b.Pending(1); n != 0 {
		t.Fatalf("after count flush Pending = %d", n)
	}
	for i, f := range futs {
		if s, err := f.Get(); err != nil || s != "q/q" {
			t.Fatalf("future %d = %q, %v", i, s, err)
		}
	}
}

// tinyFrames reports a one-byte message-size limit over the loopback
// backend, whose own Call takes far more.
type tinyFrames struct{ *locb.Node }

func (tinyFrames) MaxMessageLen() int { return 1 }

func TestBatchByteCapFlush(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewRuntime(tb, "batch-cap-target")
	host := core.NewRuntime(tinyFrames{hb}, "batch-cap-host")
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	// A one-byte limit cannot hold any message: every add must ship its
	// message immediately as a frame of one rather than stall or error.
	host.SetBatching(core.BatchPolicy{MaxMessages: 1 << 20})
	b := core.NewBatcher(host)
	for i := 0; i < 3; i++ {
		f := core.BatchAdd(b, 1, fnEcho.Bind("tiny"))
		if n := b.Pending(1); n != 0 {
			t.Fatalf("add %d left %d queued under a 1-byte limit", i, n)
		}
		if s, err := f.Get(); err != nil || s != "tiny/tiny" {
			t.Fatalf("byte-capped future %d = %q, %v", i, s, err)
		}
	}
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	<-serveDone
}

func TestBatchGetForcesFlush(t *testing.T) {
	host, done := app(t)
	defer done()
	host.SetBatching(core.BatchPolicy{MaxMessages: 100})
	b := core.NewBatcher(host)
	f1 := core.BatchAdd(b, 1, fnEcho.Bind("a"))
	f2 := core.BatchAdd(b, 1, fnEcho.Bind("b"))
	if n := b.Pending(1); n != 2 {
		t.Fatalf("Pending = %d", n)
	}
	// No explicit Flush: blocking on any queued future must push the frame
	// out, or the program would deadlock right here.
	if s, err := f1.Get(); err != nil || s != "a/a" {
		t.Fatalf("f1 = %q, %v", s, err)
	}
	if s, err := f2.Get(); err != nil || s != "b/b" {
		t.Fatalf("f2 = %q, %v", s, err)
	}
}

func TestBatchTestIsNonBlocking(t *testing.T) {
	host, done := app(t)
	defer done()
	host.SetBatching(core.BatchPolicy{MaxMessages: 100})
	b := core.NewBatcher(host)
	f := core.BatchAdd(b, 1, fnEcho.Bind("t"))
	for !f.Test() {
	}
	if s, err := f.Get(); err != nil || s != "t/t" {
		t.Fatalf("future = %q, %v", s, err)
	}
}

func TestBatchErrorIsolation(t *testing.T) {
	host, done := app(t)
	defer done()
	host.SetBatching(core.BatchPolicy{MaxMessages: 8})
	b := core.NewBatcher(host)
	ok1 := core.BatchAdd(b, 1, fnEcho.Bind("pre"))
	bad := core.BatchAdd(b, 1, fnBoom.Bind())
	ok2 := core.BatchAdd(b, 1, fnEcho.Bind("post"))
	b.FlushAll()
	if s, err := ok1.Get(); err != nil || s != "pre/pre" {
		t.Fatalf("ok1 = %q, %v", s, err)
	}
	if _, err := bad.Get(); err == nil || !strings.Contains(err.Error(), "synthetic kernel failure") {
		t.Fatalf("bad = %v", err)
	}
	if s, err := ok2.Get(); err != nil || s != "post/post" {
		t.Fatalf("ok2 = %q, %v", s, err)
	}
	// The runtime is still live for plain offloads afterwards.
	if n, err := core.Sync(host, 1, fnWhoAmI.Bind()); err != nil || n != 1 {
		t.Fatalf("after mixed batch: whoami = %d, %v", n, err)
	}
}

func TestBatchAsyncBatchOrdering(t *testing.T) {
	host, done := app(t)
	defer done()
	host.SetBatching(core.BatchPolicy{MaxMessages: 4})
	fns := make([]core.Functor[int64], 11) // 4+4+3 frames
	for i := range fns {
		fns[i] = fnSum4.Bind(int64(i), 0, 0, 0)
	}
	futs := core.AsyncBatch(host, 1, fns)
	for i := len(futs) - 1; i >= 0; i-- { // out-of-order harvest
		if v, err := futs[i].Get(); err != nil || v != int64(i) {
			t.Fatalf("future %d = %d, %v", i, v, err)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	host, done := app(t)
	defer done()
	host.SetBatching(core.BatchPolicy{MaxMessages: 4})
	b := core.NewBatcher(host)
	if _, err := core.BatchAdd(b, 0, fnEcho.Bind("x")).Get(); err == nil {
		t.Error("batched offload to self accepted")
	}
	if _, err := core.BatchAdd(b, 99, fnEcho.Bind("x")).Get(); err == nil {
		t.Error("batched offload to missing node accepted")
	}
	if n := b.Pending(0) + b.Pending(99); n != 0 {
		t.Errorf("invalid targets left %d messages queued", n)
	}
}
