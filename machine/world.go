package machine

import (
	"hamoffload/internal/core"
	"hamoffload/internal/topology"
)

// World is one simulated run, described as a value: the machine (Config),
// the protocol that connects the VH program to its VEs (DMA, else VEO) and
// that protocol's options. Every experiment of §V sweeps one axis of it —
// socket, protocol, page size, DMA manager, poll interval — so a sweep is a
// list of Worlds and each measurement one function of a World.
type World struct {
	Config
	DMA     bool // the DMA protocol (§IV-B); false is the VEO protocol (§III-D)
	Options ProtocolOptions
}

// Run builds w's machine, connects to its VEs and runs fn as the VH program,
// finalizing the runtime when fn returns, whether or not it failed. fn sees
// the machine (to kill a card, read a counter); so does the caller, after
// the run. The error is the build's, the connect's, fn's, else Finalize's,
// or the engine's, as it came.
func (w World) Run(fn func(p *Proc, m *Machine, rt *core.Runtime) error) (*Machine, error) {
	m, err := New(w.Config)
	if err != nil {
		return nil, err
	}
	connect := ConnectVEO
	if w.DMA {
		connect = ConnectDMA
	}
	return m, m.RunMain(func(p *Proc) (err error) {
		rt, err := connect(p, m, w.Options)
		if err != nil {
			return err
		}
		defer func() {
			if ferr := rt.Finalize(); err == nil {
				err = ferr
			}
		}()
		return fn(p, m, rt)
	})
}

// Tuned returns w with its timing model edited by tune. The edit applies to
// a copy — of w's override, else of the calibrated default — so Worlds that
// share an override never see each other's edits.
func (w World) Tuned(tune func(*topology.Timing)) World {
	t := topology.DefaultTiming()
	if w.Timing != nil {
		t = *w.Timing
	}
	tune(&t)
	w.Timing = &t
	return w
}
