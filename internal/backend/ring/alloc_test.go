package ring_test

import (
	"testing"

	"hamoffload/internal/backend/ring"
	"hamoffload/internal/core"
	"hamoffload/internal/faults"
	"hamoffload/internal/ham"
	"hamoffload/internal/simtime"
	"hamoffload/machine"
)

const allocEcho = "ring.alloc_echo"

func init() {
	ham.RegisterHandler(allocEcho, func(_ any, dec *ham.Decoder, enc *ham.Encoder) error {
		enc.PutI64(dec.I64())
		return dec.Err()
	})
}

// TestHandlesInFlightZeroAlloc keeps a gateway window of offloads in flight
// on one VE, at the backend — every Call, then every Wait — the way core's
// TestBatchFramesInFlightZeroAlloc keeps frames open one layer up. Each
// handle comes back through the Host's free list once Wait hands its result
// out, so the warm wave parks exactly one handle per offload and the next
// wave allocates nothing. It runs over both protocols, each also under
// rules that match VE 0: serve-peak's SlowDown window, a Stall window and a
// Crash that never fires. Armed, dmab's idle VE parks its flag poll with the
// slowed load in its cost, and every VEO transfer passes the VEOS entry's
// fault hooks. Under a Jitter rule that fires on every LHM load (drawn from
// [0, 1 ps): no delay), no flag load is quiet, so dmab's idle VE loads the
// flag on every tick itself (dma.Instr.LoadWord, simtime's tick sleep).
func TestHandlesInFlightZeroAlloc(t *testing.T) {
	end := simtime.Time(1000 * simtime.Second) // past the run: every wave is inside
	armed := &faults.Plan{Rules: []faults.Rule{
		{Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0, Factor: 4, Until: end},
		{Kind: faults.Stall, Node: 0, StallFor: simtime.Microsecond, Until: end},
		{Kind: faults.Crash, Node: 0, AfterOp: 1 << 62},
	}}
	loud := &faults.Plan{Rules: []faults.Rule{{Kind: faults.Jitter, Site: faults.SiteLHM, Node: 0, Rate: 1, JitterMax: 1}}}
	for _, tc := range []struct {
		name    string
		connect func(*machine.Proc, *machine.Machine, machine.ProtocolOptions) (*core.Runtime, error)
		plan    *faults.Plan
	}{
		{"dmab", machine.ConnectDMA, nil},
		{"dmab armed", machine.ConnectDMA, armed},
		{"dmab loud", machine.ConnectDMA, loud},
		{"veob", machine.ConnectVEO, nil},
		{"veob armed", machine.ConnectVEO, armed},
	} {
		t.Run(tc.name, func(t *testing.T) { handlesInFlight(t, tc.connect, tc.plan) })
	}
}

func handlesInFlight(t *testing.T, connect func(*machine.Proc, *machine.Machine, machine.ProtocolOptions) (*core.Runtime, error), plan *faults.Plan) {
	const window = 8 // gateway.Config's default Window: one offload per slot
	m, err := machine.New(machine.Config{VEs: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := connect(p, m, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		h := rt.Backend().(*ring.Host)
		msg, err := rt.Binary().EncodeRequest(allocEcho, func(e *ham.Encoder) { e.PutI64(7) })
		if err != nil {
			return err
		}
		var (
			handles [window]core.Handle
			dec     ham.Decoder
			bad     int
		)
		wave := func() {
			for i := range handles {
				if handles[i], err = h.Call(1, msg); err != nil {
					bad++
					return
				}
			}
			for _, hd := range handles {
				resp, werr := h.Wait(hd)
				if werr != nil {
					bad++
					continue
				}
				if d, derr := ham.DecodeResponseInto(&dec, resp); derr != nil || d.I64() != 7 {
					bad++
				}
			}
		}
		wave()
		if parked := ring.ParkedHandles(h); parked != window || h.OpenHandles() != 0 {
			t.Errorf("after a wave of %d in flight: %d handles parked, %d open; want %d and 0", window, parked, h.OpenHandles(), window)
		}
		if n := testing.AllocsPerRun(50, wave); n != 0 {
			t.Errorf("a warm wave of %d in-flight offloads allocates %.1f objects, want 0", window, n)
		}
		if bad != 0 {
			t.Errorf("%d calls or results went wrong (last error %v)", bad, err)
		}
		if plan != nil && m.Timing.Faults.Injected() == 0 {
			t.Error("the armed plan injected no fault")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
