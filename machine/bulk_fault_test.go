package machine_test

import (
	"bytes"
	"errors"
	"testing"

	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/machine"
	"hamoffload/offload"
)

// Put and Get hand the caller's slice to the privileged DMA in place: the
// slice is mapped into VH memory for the call and the engine copies to or
// from it. These tests pin what that must not change — where an injected
// fault lands, what a failed transfer leaves behind — and that the mapping
// never outlives the call.

const bulkFaultLen = 300_000 // bytes; crosses a mem.ChunkSize boundary

// bulkFaultOutcome is what one bulkFaultRun observed: the errors of its Put
// and its Get, the simulated interval each ran in, and what Get left in a
// slice pre-filled with 0xEE.
type bulkFaultOutcome struct {
	putErr, getErr error
	put, get       [2]simtime.Time // [from, until)
	dst            []uint8
}

// bulkFaultRun puts a pattern to a VE over the VEO protocol and gets it back
// under plan. After either call, failed or not, the host heap must be as it
// was before: the caller's slice is mapped for the duration of the call only.
func bulkFaultRun(t *testing.T, plan *faults.Plan) bulkFaultOutcome {
	t.Helper()
	m, err := machine.New(machine.Config{VEs: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	out := bulkFaultOutcome{dst: bytes.Repeat([]byte{0xEE}, bulkFaultLen)}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectVEO(p, m, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		buf, err := offload.Allocate[uint8](rt, 1, bulkFaultLen)
		if err != nil {
			return err
		}
		live := m.Host.LiveAllocs()
		settled := func(after string) {
			if l := m.Host.LiveAllocs(); l != live {
				t.Errorf("after %s: %d live host allocations, want %d: the caller's slice is still mapped", after, l, live)
			}
		}
		out.put[0] = p.Now()
		out.putErr = offload.Put(rt, bulkPattern(), buf)
		out.put[1] = p.Now() + 1
		settled("Put")
		out.get[0] = p.Now()
		out.getErr = offload.Get(rt, buf, out.dst)
		out.get[1] = p.Now() + 1
		settled("Get")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func bulkPattern() []uint8 {
	src := make([]uint8, bulkFaultLen)
	for i := range src {
		src[i] = uint8(i*7 + i>>9)
	}
	return src
}

func TestBulkFaultSemantics(t *testing.T) {
	src := bulkPattern()
	clean := bulkFaultRun(t, nil)
	if clean.putErr != nil || clean.getErr != nil || !bytes.Equal(clean.dst, src) {
		t.Fatalf("unarmed run: Put %v, Get %v, data intact %v", clean.putErr, clean.getErr, bytes.Equal(clean.dst, src))
	}
	during := func(kind faults.Kind, window [2]simtime.Time) *faults.Plan {
		return &faults.Plan{Seed: 7, Rules: []faults.Rule{
			{Kind: kind, Site: faults.SitePrivDMA, Node: faults.AnyNode, From: window[0], Until: window[1]},
		}}
	}
	injected := func(err error) bool {
		var fe *faults.Error
		return errors.As(err, &fe) && fe.Kind == faults.DMAError
	}

	// A bit flip on the read DMA reaches the caller's slice at the byte it
	// reached when Get still copied out of a staging buffer: the offset is
	// the one that code delivered for this plan.
	const flippedAt = 55_217
	flip := bulkFaultRun(t, during(faults.BitFlip, clean.get))
	if flip.getErr != nil || flip.get != clean.get {
		t.Fatalf("bit-flip run: Get = %v over %v (unarmed run: %v)", flip.getErr, flip.get, clean.get)
	}
	var diff []int
	for i := range flip.dst {
		if flip.dst[i] != src[i] {
			diff = append(diff, i)
		}
	}
	if len(diff) != 1 || diff[0] != flippedAt || flip.dst[flippedAt] != src[flippedAt]^0x10 {
		t.Errorf("bit flip changed bytes %v, want exactly byte %d xor 0x10", diff, flippedAt)
	}

	// A failed transfer delivers nothing: dst keeps every byte it had.
	failed := bulkFaultRun(t, during(faults.DMAError, clean.get))
	if !injected(failed.getErr) {
		t.Fatalf("DMA-error run: Get = %v, want an injected DMAError", failed.getErr)
	}
	if !bytes.Equal(failed.dst, bytes.Repeat([]byte{0xEE}, bulkFaultLen)) {
		t.Errorf("failed Get wrote into dst")
	}

	// A failed Put unmaps its source like a successful one: bulkFaultRun's
	// own check. (The run's Get starts early, inside the window, and fails
	// too.)
	failed = bulkFaultRun(t, during(faults.DMAError, clean.put))
	if !injected(failed.putErr) {
		t.Fatalf("DMA-error run: Put = %v, want an injected DMAError", failed.putErr)
	}
}
