package ring_test

import (
	"testing"

	"hamoffload/internal/backend/ring"
	"hamoffload/internal/core"
	"hamoffload/internal/ham"
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
// on one VE over the DMA protocol, at the backend — every Call, then every
// Wait — the way core's TestBatchFramesInFlightZeroAlloc keeps frames open
// one layer up. Each handle comes back through the Host's free list once
// Wait hands its result out, so the warm wave parks exactly one handle per
// offload and the next wave allocates nothing.
func TestHandlesInFlightZeroAlloc(t *testing.T) {
	const window = 8 // gateway.Config's default Window: one offload per slot
	m, err := machine.New(machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{})
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
