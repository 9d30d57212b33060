package machine_test

import (
	"bytes"
	"strings"
	"testing"

	"hamoffload/bench"
	"hamoffload/internal/topology"
	"hamoffload/internal/units"
	"hamoffload/machine"
	"hamoffload/offload"
)

// Offloadable functions for the integration tests, registered at package
// level like C++ static initialisation.
var (
	mtEmpty = offload.NewFunc0[offload.Unit]("machine.empty",
		func(c *offload.Ctx) (offload.Unit, error) { return offload.Unit{}, nil })

	mtDot = offload.NewFunc3[float64]("machine.dot",
		func(c *offload.Ctx, a, b offload.BufferPtr[float64], n int64) (float64, error) {
			av, err := offload.ReadLocal(c, a, 0, n)
			if err != nil {
				return 0, err
			}
			bv, err := offload.ReadLocal(c, b, 0, n)
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

	mtBigResult = offload.NewFunc1[[]float64]("machine.bigresult",
		func(c *offload.Ctx, n int64) ([]float64, error) {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(i) * 0.5
			}
			return out, nil
		})
)

type connector func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error)

var connectors = map[string]connector{
	"veo": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
		return machine.ConnectVEO(p, m, machine.ProtocolOptions{})
	},
	"dma": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
		return machine.ConnectDMA(p, m, machine.ProtocolOptions{})
	},
}

// TestInnerProductOnBothProtocols runs the paper's Fig. 2 program on the
// simulated A300-8 over both messaging protocols and checks the numerical
// result — the "applications run unchanged on either backend" property of
// §V.
func TestInnerProductOnBothProtocols(t *testing.T) {
	for name, connect := range connectors {
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.Config{VEs: 1})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				const n = 1024
				a := make([]float64, n)
				b := make([]float64, n)
				want := 0.0
				for i := range a {
					a[i] = float64(i)
					b[i] = 0.25
					want += a[i] * b[i]
				}
				target := offload.NodeID(1)
				aT, err := offload.Allocate[float64](rt, target, n)
				if err != nil {
					return err
				}
				bT, err := offload.Allocate[float64](rt, target, n)
				if err != nil {
					return err
				}
				if err := offload.Put(rt, a, aT); err != nil {
					return err
				}
				if err := offload.Put(rt, b, bT); err != nil {
					return err
				}
				got, err := offload.Sync(rt, target, mtDot.Bind(aT, bT, n))
				if err != nil {
					return err
				}
				if got != want {
					t.Errorf("dot = %v, want %v", got, want)
				}
				if err := offload.Free(rt, aT); err != nil {
					return err
				}
				if err := offload.Free(rt, bT); err != nil {
					return err
				}
				return rt.Finalize()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// measureEmpty returns the average empty-offload cost in microseconds over
// the given protocol, following the paper's methodology (warm-up, then many
// timed repetitions).
func measureEmpty(t *testing.T, connect connector, reps int, socket int) float64 {
	t.Helper()
	m, err := machine.New(machine.Config{VEs: 1, Socket: socket})
	if err != nil {
		t.Fatal(err)
	}
	var us float64
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := connect(p, m)
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		for i := 0; i < 10; i++ { // warm-up
			if _, err := offload.Sync(rt, 1, mtEmpty.Bind()); err != nil {
				return err
			}
		}
		start := m.Now()
		for i := 0; i < reps; i++ {
			if _, err := offload.Sync(rt, 1, mtEmpty.Bind()); err != nil {
				return err
			}
		}
		us = (m.Now() - start).Microseconds() / float64(reps)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return us
}

// TestFig9OffloadCostCalibration checks the paper's headline numbers on a
// machine driven directly: the HAM-Offload empty-offload cost over the VEO
// and DMA protocols and their ratio stay within the bands of bench.Anchors.
func TestFig9OffloadCostCalibration(t *testing.T) {
	veo := measureEmpty(t, connectors["veo"], 50, 0)
	dma := measureEmpty(t, connectors["dma"], 200, 0)
	for name, us := range map[string]float64{
		"HAM-Offload (VEO transfer)": veo,
		"HAM-Offload (VE DMA)":       dma,
		"HAM-VEO / HAM-DMA":          veo / dma,
	} {
		if err := bench.CheckAnchor(name, us); err != nil {
			t.Error(err)
		}
	}
}

// TestSecondSocketAddsUPIMicrosecond reproduces §V-A: offloading from the
// second CPU socket adds up to ~1 µs to the DMA measurement.
func TestSecondSocketAddsUPIMicrosecond(t *testing.T) {
	local := measureEmpty(t, connectors["dma"], 200, 0)
	remote := measureEmpty(t, connectors["dma"], 200, 1)
	if err := bench.CheckAnchor("socket-1 penalty, HAM-DMA", remote-local); err != nil {
		t.Error(err)
	}
}

// TestLargeResultsAndPutGetOnBothProtocols exercises the overflow result
// path and round-trip data transfers.
func TestLargeResultsAndPutGetOnBothProtocols(t *testing.T) {
	for name, connect := range connectors {
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.Config{VEs: 1})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				// 100 float64 = 800 B result, beyond the 248 B inline area.
				out, err := offload.Sync(rt, 1, mtBigResult.Bind(int64(100)))
				if err != nil {
					return err
				}
				if len(out) != 100 || out[99] != 49.5 {
					t.Errorf("big result = len %d, last %v", len(out), out[len(out)-1])
				}
				// Put/Get round trip through VE memory.
				buf, err := offload.Allocate[int64](rt, 1, 4096)
				if err != nil {
					return err
				}
				src := make([]int64, 4096)
				for i := range src {
					src[i] = int64(i * 3)
				}
				if err := offload.Put(rt, src, buf); err != nil {
					return err
				}
				dst := make([]int64, 4096)
				if err := offload.Get(rt, buf, dst); err != nil {
					return err
				}
				for i := range src {
					if dst[i] != src[i] {
						t.Fatalf("put/get mismatch at %d", i)
					}
				}
				return offload.Free(rt, buf)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMultiVEOffload drives all eight VEs of the A300-8 from one host
// process over the DMA protocol.
func TestMultiVEOffload(t *testing.T) {
	m, err := machine.New(machine.Config{VEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		if rt.NumNodes() != 9 {
			t.Errorf("NumNodes = %d, want 9", rt.NumNodes())
		}
		// Offload to every VE; descriptors must identify them.
		for ve := 1; ve <= 8; ve++ {
			d, err := rt.Ping(offload.NodeID(ve))
			if err != nil {
				return err
			}
			if d.Device != "NEC VE Type 10B" {
				t.Errorf("node %d descriptor = %+v", ve, d)
			}
		}
		// Async fan-out to all VEs, then collect.
		futs := make([]*offload.Future[offload.Unit], 0, 8)
		for ve := 1; ve <= 8; ve++ {
			futs = append(futs, offload.Async(rt, offload.NodeID(ve), mtEmpty.Bind()))
		}
		for _, f := range futs {
			if _, err := f.Get(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConfigValidation covers the machine constructor's error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := machine.New(machine.Config{VEs: 99}); err == nil {
		t.Error("VEs=99 accepted")
	}
	if _, err := machine.New(machine.Config{Socket: 5}); err == nil {
		t.Error("socket 5 accepted")
	}
	if _, err := machine.New(machine.Config{VEs: -1}); err == nil {
		t.Error("negative VEs accepted")
	}
}

// TestDeterministicReplay asserts the simulation's core property: two
// identical runs produce bit-identical simulated times and event counts.
func TestDeterministicReplay(t *testing.T) {
	run := func() (machine.Duration, uint64) {
		m, err := machine.New(machine.Config{VEs: 2})
		if err != nil {
			t.Fatal(err)
		}
		err = m.RunMain(func(p *machine.Proc) error {
			rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{})
			if err != nil {
				return err
			}
			defer func() { _ = rt.Finalize() }()
			buf, err := offload.Allocate[float64](rt, 1, 1024)
			if err != nil {
				return err
			}
			data := make([]float64, 1024)
			for i := 0; i < 20; i++ {
				if err := offload.Put(rt, data, buf); err != nil {
					return err
				}
				f1 := offload.Async(rt, 1, mtEmpty.Bind())
				f2 := offload.Async(rt, 2, mtEmpty.Bind())
				if _, err := f2.Get(); err != nil {
					return err
				}
				if _, err := f1.Get(); err != nil {
					return err
				}
			}
			return offload.Free(rt, buf)
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Now(), m.Eng.Events()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("replay diverged: %v/%d vs %v/%d", t1, e1, t2, e2)
	}
}

// TestConfigKnobs exercises the machine-level ablation switches.
func TestConfigKnobs(t *testing.T) {
	w := machine.World{Config: machine.Config{NaiveDMAManager: true}}
	w = w.Tuned(func(t *topology.Timing) { t.HostPageSize = 4 * units.KiB })
	m, err := machine.New(w.Config)
	if err != nil {
		t.Fatal(err)
	}
	if m.Timing.HostPageSize != 4096 {
		t.Errorf("page size = %v, want 4096", m.Timing.HostPageSize)
	}
	// A machine with tiny VE memory propagates allocation failures through
	// the offload API.
	small, err := machine.New(machine.Config{VEMemoryBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	err = small.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, small, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		if _, err := offload.Allocate[float64](rt, 1, 1<<20); err == nil {
			t.Error("allocation beyond VE memory accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mtEchoStr round-trips a string, for message-size boundary probing.
var mtEchoStr = offload.NewFunc1[string]("machine.echostr",
	func(c *offload.Ctx, s string) (string, error) { return s, nil })

// TestMessageSizeBoundaries walks offload message sizes across the protocol
// buffer limit: everything that fits must round-trip bit-exactly, the first
// size beyond the buffer must fail cleanly, and the channel must survive.
func TestMessageSizeBoundaries(t *testing.T) {
	const bufSize = 1024
	for name, base := range map[string]func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error){
		"veo": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectVEO(p, m, machine.ProtocolOptions{BufSize: bufSize})
		},
		"dma": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectDMA(p, m, machine.ProtocolOptions{BufSize: bufSize})
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.Config{VEs: 1})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := base(p, m)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				// Wire overhead: u32 key + u32 string length.
				const overhead = 8
				for _, strLen := range []int{0, 1, 7, bufSize - overhead - 1, bufSize - overhead} {
					s := strings.Repeat("x", strLen)
					got, err := offload.Sync(rt, 1, mtEchoStr.Bind(s))
					if err != nil {
						t.Errorf("len %d: %v", strLen, err)
						continue
					}
					if got != s {
						t.Errorf("len %d: corrupted round trip", strLen)
					}
				}
				// One byte past the buffer: clean rejection.
				if _, err := offload.Sync(rt, 1, mtEchoStr.Bind(strings.Repeat("x", bufSize-overhead+1))); err == nil {
					t.Error("message one byte past the buffer accepted")
				}
				// The channel survives.
				if got, err := offload.Sync(rt, 1, mtEchoStr.Bind("alive")); err != nil || got != "alive" {
					t.Errorf("post-rejection offload: %q, %v", got, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResultSizeBoundaries walks result sizes across the inline/overflow
// split of both protocols: the response payload is 5+8n bytes, so n=30 fits
// the 248-byte inline area and n=31 takes the overflow path.
func TestResultSizeBoundaries(t *testing.T) {
	for name, connect := range connectors {
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.Config{VEs: 1})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				for _, n := range []int64{1, 29, 30, 31, 32, 100} {
					out, err := offload.Sync(rt, 1, mtBigResult.Bind(n))
					if err != nil {
						t.Errorf("n=%d: %v", n, err)
						continue
					}
					if int64(len(out)) != n {
						t.Errorf("n=%d: got %d elements", n, len(out))
						continue
					}
					for i := range out {
						if out[i] != float64(i)*0.5 {
							t.Errorf("n=%d: element %d corrupted", n, i)
							break
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// mtEchoBytes round-trips a byte slice.
var mtEchoBytes = offload.NewFunc1[[]byte]("machine.echobytes",
	func(c *offload.Ctx, b []byte) ([]byte, error) { return b, nil })

// TestFanOutHelpers drives AsyncAll/GetAll across all eight VEs.
func TestFanOutHelpers(t *testing.T) {
	m, err := machine.New(machine.Config{VEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		nodes := make([]offload.NodeID, 8)
		for i := range nodes {
			nodes[i] = offload.NodeID(i + 1)
		}
		futs := asyncAll(rt, nodes, mtEchoStr.Bind("fan"))
		out, err := offload.GetAll(futs)
		if err != nil {
			return err
		}
		for i, s := range out {
			if s != "fan" {
				t.Errorf("node %d returned %q", i+1, s)
			}
		}
		// One functor, bound once, reaches every node with the bytes it was
		// bound with: Bind copied them, inline or — past the functor's own
		// capacity — into one buffer of its own, so the caller may reuse its
		// slice at once.
		for _, n := range []int{8, 100} {
			arg := bytes.Repeat([]byte{0xA5}, n)
			fn := mtEchoBytes.Bind(arg)
			clear(arg)
			got, err := offload.GetAll(asyncAll(rt, nodes, fn))
			if err != nil {
				return err
			}
			for i, b := range got {
				if !bytes.Equal(b, bytes.Repeat([]byte{0xA5}, n)) {
					t.Errorf("%d bytes: node %d received %x", n, i+1, b)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// asyncAll offloads fn to each node and returns the futures in node order.
func asyncAll[R any](rt *offload.Runtime, nodes []offload.NodeID, fn offload.Functor[R]) []*offload.Future[R] {
	futs := make([]*offload.Future[R], len(nodes))
	for i, n := range nodes {
		futs[i] = offload.Async(rt, n, fn)
	}
	return futs
}
