package machine_test

import (
	"errors"
	"math"
	"testing"

	"hamoffload/internal/topology"
	"hamoffload/machine"
	"hamoffload/offload"
)

// handWritten is the preamble World.Run replaces: build, connect over one
// protocol, run body, finalize on the way out.
func handWritten(w machine.World, body func(*offload.Runtime) error) (*machine.Machine, error) {
	m, err := machine.New(w.Config)
	if err != nil {
		return nil, err
	}
	return m, m.RunMain(func(p *machine.Proc) error {
		connect := machine.ConnectVEO
		if w.DMA {
			connect = machine.ConnectDMA
		}
		rt, err := connect(p, m, w.Options)
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		return body(rt)
	})
}

// TestWorldRun pins World.Run to the preamble it replaces: the same events
// and final clock on both protocols at one and eight VEs, connect and
// program errors returned as they came, a finalize after a failed program,
// and Finalize's own error when the program succeeded.
func TestWorldRun(t *testing.T) {
	offloadOnce := func(rt *offload.Runtime) error {
		_, err := offload.Sync(rt, 1, mtEmpty.Bind())
		return err
	}
	for _, tc := range []struct {
		name string
		w    machine.World
	}{
		{"veo-1", machine.World{Config: machine.Config{VEs: 1}}},
		{"dma-1", machine.World{Config: machine.Config{VEs: 1}, DMA: true}},
		{"veo-8", machine.World{Config: machine.Config{VEs: 8}}},
		{"dma-8", machine.World{Config: machine.Config{VEs: 8}, DMA: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := handWritten(tc.w, offloadOnce)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.w.Run(func(_ *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
				return offloadOnce(rt)
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Eng.Events() != want.Eng.Events() || got.Now() != want.Now() {
				t.Errorf("Events, Now = %d, %v; the hand-written preamble gives %d, %v",
					got.Eng.Events(), got.Now(), want.Eng.Events(), want.Now())
			}
		})
	}

	t.Run("connect-error", func(t *testing.T) {
		// The VEO protocol's buffers live in VE memory, which cannot hold them.
		w := machine.World{Config: machine.Config{VEMemoryBytes: 1 << 16},
			Options: machine.ProtocolOptions{BufSize: 1 << 20}}
		_, want := handWritten(w, offloadOnce)
		ran := false
		_, err := w.Run(func(*machine.Proc, *machine.Machine, *offload.Runtime) error {
			ran = true
			return nil
		})
		if want == nil || err == nil || err.Error() != want.Error() || ran {
			t.Errorf("Run = %v (program ran: %v), want the preamble's connect error %v", err, ran, want)
		}
	})

	t.Run("program-error", func(t *testing.T) {
		boom := errors.New("boom")
		w := machine.World{DMA: true}
		var failedAt machine.Duration
		m, err := w.Run(func(p *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
			if err := offloadOnce(rt); err != nil {
				return err
			}
			failedAt = machine.Duration(p.Now())
			return boom
		})
		if err != boom {
			t.Fatalf("Run = %v, want the program's own error", err)
		}
		// Finalize's terminate exchange runs after the program returned.
		want, _ := handWritten(w, func(rt *offload.Runtime) error { _ = offloadOnce(rt); return boom })
		if m.Now() <= failedAt || m.Now() != want.Now() || m.Eng.Events() != want.Eng.Events() {
			t.Errorf("Now = %v after a program that failed at %v; the finalizing preamble ends at %v",
				m.Now(), failedAt, want.Now())
		}
	})

	t.Run("finalize-error", func(t *testing.T) {
		// A program that finalizes the runtime itself leaves Run's own
		// Finalize a runtime whose VEs are gone; that failure is Run's error.
		for _, dma := range []bool{false, true} {
			_, err := machine.World{DMA: dma}.Run(func(_ *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
				return rt.Finalize()
			})
			if err == nil {
				t.Errorf("DMA %v: Run = nil after a second Finalize, want its error", dma)
			}
		}
	})

	t.Run("timeout-of-max-duration", func(t *testing.T) {
		// The largest OffloadTimeout is the end of time, not a deadline in
		// the past: offloads and Finalize's terminate go through.
		w := machine.World{DMA: true, Options: machine.ProtocolOptions{OffloadTimeout: machine.Duration(math.MaxInt64)}}
		if _, err := w.Run(func(_ *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
			return offloadOnce(rt)
		}); err != nil {
			t.Fatalf("Run = %v", err)
		}
	})

	t.Run("tuned-copies", func(t *testing.T) {
		base := machine.World{}.Tuned(func(tm *topology.Timing) { tm.HAMVEPollInterval = 500 * machine.Nanosecond })
		fine := base.Tuned(func(tm *topology.Timing) { tm.HAMVEPollInterval = 50 * machine.Nanosecond })
		if base.Timing.HAMVEPollInterval != 500*machine.Nanosecond || fine.Timing.HAMVEPollInterval != 50*machine.Nanosecond {
			t.Errorf("poll intervals %v, %v: a Tuned World shares its timing with its base",
				base.Timing.HAMVEPollInterval, fine.Timing.HAMVEPollInterval)
		}
	})
}
