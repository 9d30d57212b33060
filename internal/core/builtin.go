package core

import (
	"fmt"

	"hamoffload/internal/ham"
	"hamoffload/internal/mem"
)

// Built-in active messages of the runtime. Like in the C++ original, memory
// management on a target is itself implemented as offloaded messages: the
// host's Allocate is an active message whose handler runs the target-local
// allocator.

// msgPrefix namespaces the runtime's own messages, and offloads carrying it
// are node-pinned. These address a specific node's state, so speculatively
// re-executing one on a *different* node is never correct: a hedged allocate
// returns an address on the wrong card, and a hedged terminate shuts down a
// healthy node that still has traffic — then waits forever for the real
// target's terminate to answer. Pinned offloads resolve through the plain
// retry path regardless of the hedging policy.
const msgPrefix = "ham.rt."

var (
	msgAlloc = register("ham.rt.allocate", func(env any, dec *ham.Decoder, enc *ham.Encoder) error {
		rt := env.(*Runtime)
		size := dec.I64()
		if err := dec.Err(); err != nil {
			return err
		}
		addr, err := rt.backend.Memory().Alloc(size)
		if err != nil {
			return fmt.Errorf("core: target allocate(%d): %w", size, err)
		}
		enc.PutU64(uint64(addr))
		return nil
	})

	msgFree = register("ham.rt.free", func(env any, dec *ham.Decoder, enc *ham.Encoder) error {
		rt := env.(*Runtime)
		addr := dec.U64()
		if err := dec.Err(); err != nil {
			return err
		}
		return rt.backend.Memory().Free(mem.Addr(addr))
	})

	msgTerminate = register("ham.rt.terminate", func(env any, dec *ham.Decoder, enc *ham.Encoder) error {
		env.(*Runtime).terminated = true
		return nil
	})

	msgPing = register("ham.rt.ping", func(env any, dec *ham.Decoder, enc *ham.Encoder) error {
		rt := env.(*Runtime)
		d := rt.GetNodeDescriptor(rt.ThisNode())
		enc.PutString(d.Name)
		enc.PutString(d.Arch)
		enc.PutString(d.Device)
		enc.PutU64(rt.bin.Fingerprint())
		return nil
	})
)

// Ping round-trips a descriptor request to node n — a liveness check that
// also exercises the whole message path.
func (rt *Runtime) Ping(n NodeID) (NodeDescriptor, error) {
	d, _, err := rt.ping(n)
	return d, err
}

func (rt *Runtime) ping(n NodeID) (NodeDescriptor, uint64, error) {
	dec, err := rt.callSync(n, msgPing, nil)
	if err != nil {
		return NodeDescriptor{}, 0, err
	}
	d := NodeDescriptor{Name: dec.String(), Arch: dec.String(), Device: dec.String()}
	fp := dec.U64()
	return d, fp, dec.Err()
}

// CheckCompatible verifies that node n's binary was instantiated from the
// same message-type program as this one, i.e. that handler keys translate
// identically on both sides. Incompatible binaries — one side registered
// functions the other did not — would otherwise dispatch the wrong handlers.
func (rt *Runtime) CheckCompatible(n NodeID) error {
	d, fp, err := rt.ping(n)
	if err != nil {
		return err
	}
	if fp != rt.bin.Fingerprint() {
		return fmt.Errorf("core: node %d (%s) runs an incompatible binary: "+
			"message tables differ (fingerprint %#x != %#x)", n, d.Name, fp, rt.bin.Fingerprint())
	}
	return nil
}
