package offload_test

import (
	"testing"

	"hamoffload/internal/backend/locb"
	"hamoffload/offload"
)

// TestPublicSurface exercises the re-exported API end to end through the
// package's own names — aliases, generic wrappers and constants — so a
// regression in the public surface fails here even if the internals pass.
func TestPublicSurface(t *testing.T) {
	if offload.HostNode != offload.NodeID(0) {
		t.Error("HostNode should be node 0")
	}
	rt, shutdown := startApp() // from example_test.go
	defer shutdown()

	if rt.ThisNode() != offload.HostNode || rt.NumNodes() != 2 {
		t.Errorf("introspection = %d/%d", rt.ThisNode(), rt.NumNodes())
	}
	var d offload.NodeDescriptor = rt.GetNodeDescriptor(1)
	if d.Name == "" {
		t.Error("empty descriptor")
	}

	buf, err := offload.Allocate[int32](rt, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := offload.Put(rt, []int32{1, 2, 3}, buf); err != nil {
		t.Fatal(err)
	}
	out := make([]int32, 3)
	if err := offload.Get(rt, buf, out); err != nil {
		t.Fatal(err)
	}
	if out[1] != 2 {
		t.Errorf("Get data = %v", out)
	}
	off, err := buf.Offset(2)
	if err != nil || off.Count != 6 {
		t.Errorf("Offset = %+v, %v", off, err)
	}
	if buf.IsNil() || (offload.BufferPtr[int32]{}).IsNil() != true {
		t.Error("IsNil broken")
	}
	if err := offload.Free(rt, buf); err != nil {
		t.Fatal(err)
	}

	// Copy between two targets needs a 3-node app.
	nodes, err := locb.NewN(3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rts := make([]*offload.Runtime, 3)
	for i, n := range nodes {
		rts[i] = offload.NewRuntime(n, "surface-arch")
	}
	done := make(chan struct{}, 2)
	for i := 1; i < 3; i++ {
		go func(r *offload.Runtime) {
			_ = r.Serve()
			done <- struct{}{}
		}(rts[i])
	}
	a, err := offload.Allocate[float64](rts[0], 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := offload.Allocate[float64](rts[0], 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := offload.Put(rts[0], []float64{9, 8, 7, 6}, a); err != nil {
		t.Fatal(err)
	}
	if err := offload.Copy(rts[0], a, b, 4); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 4)
	if err := offload.Get(rts[0], b, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 || got[3] != 6 {
		t.Errorf("Copy data = %v", got)
	}
	if err := rts[0].Finalize(); err != nil {
		t.Fatal(err)
	}
	<-done
	<-done
}
