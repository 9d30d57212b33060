package core

import (
	"slices"
	"testing"
)

// orderHook records its name when its future settles.
type orderHook struct {
	name string
	log  *[]string
}

func (h *orderHook) FutureSettled() { *h.log = append(*h.log, h.name) }

// TestSettleHooksRunOnceInOrder: the runtime's own onDone closes the offload
// first, then the hooks in registration order whichever form they took, each
// exactly once; a hook registered on a settled future runs at once.
func TestSettleHooksRunOnceInOrder(t *testing.T) {
	var log []string
	f := &Future[int64]{onDone: func() { log = append(log, "onDone") }}
	f.OnSettleHook(&orderHook{"hook", &log})
	f.OnSettle(func() { log = append(log, "func") })
	f.OnSettleHook(&orderHook{"hook2", &log})
	if len(log) != 0 {
		t.Fatalf("hooks ran before the future settled: %q", log)
	}
	f.fail(ErrNodeFailed)
	f.fail(ErrNodeFailed) // settling twice is a no-op
	f.OnSettle(func() { log = append(log, "late") })
	want := []string{"onDone", "hook", "func", "hook2", "late"}
	if !slices.Equal(log, want) {
		t.Fatalf("settle order %q, want %q", log, want)
	}
}
