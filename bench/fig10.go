package bench

import (
	"fmt"

	"hamoffload/internal/dma"
	"hamoffload/internal/pcie"
	"hamoffload/internal/units"
	"hamoffload/machine"
)

// Method and direction labels, matching Fig. 10's legend.
const (
	MethodVEO  = "VEO Read/Write"
	MethodDMA  = "VE User DMA"
	MethodInst = "VE SHM/LHM"

	DirDown = "VH=>VE"
	DirUp   = "VE=>VH"
)

// Fig10Config parameterises the bandwidth sweep. The paper swept each size
// 10³ times after warm-ups; the deterministic simulation needs fewer.
type Fig10Config struct {
	MinSize int64 // default 8 B
	MaxSize int64 // default 256 MiB
	// InstMaxSize caps the SHM/LHM series (default 4 MiB — the paper
	// stopped there "due to prohibitive runtimes").
	InstMaxSize int64
	Reps        int // default 3
	Warmup      int // default 1
}

func (c *Fig10Config) fill() {
	if c.MinSize <= 0 {
		c.MinSize = 8
	}
	if c.MaxSize <= 0 {
		c.MaxSize = (256 * units.MiB).Int64()
	}
	if c.InstMaxSize <= 0 {
		c.InstMaxSize = (4 * units.MiB).Int64()
	}
	if c.InstMaxSize > c.MaxSize {
		c.InstMaxSize = c.MaxSize
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Warmup <= 0 {
		c.Warmup = 1
	}
}

// Fig10 runs the full bandwidth sweep on a machine of w, its memories sized
// to the sweep: three transfer methods, both directions, on VE 0 and with no
// HAM-Offload runtime. It returns six series (SHM/LHM capped at InstMaxSize).
func Fig10(w machine.World, cfg Fig10Config) ([]Series, error) {
	cfg.fill()
	w.HostMemoryBytes = cfg.MaxSize*4 + (64 * units.MiB).Int64()
	w.VEMemoryBytes = cfg.MaxSize*2 + (64 * units.MiB).Int64()
	m, err := machine.New(w.Config)
	if err != nil {
		return nil, err
	}

	series := []Series{
		{Method: MethodVEO, Direction: DirDown},
		{Method: MethodVEO, Direction: DirUp},
		{Method: MethodDMA, Direction: DirDown},
		{Method: MethodDMA, Direction: DirUp},
		{Method: MethodInst, Direction: DirDown},
		{Method: MethodInst, Direction: DirUp},
	}

	err = m.RunMain(func(p *machine.Proc) error {
		card := m.Cards[0]
		host := card.Host

		// Buffers: a host heap buffer for VEO transfers, a shm segment
		// (DMAATB registered) for the VE-initiated methods, and a VE buffer.
		hostBuf, err := host.Alloc(cfg.MaxSize)
		if err != nil {
			return err
		}
		seg, err := host.ShmCreate(cfg.MaxSize)
		if err != nil {
			return err
		}
		veBuf, err := card.Mem.Alloc(cfg.MaxSize)
		if err != nil {
			return err
		}
		shmVEHVA, err := card.Mem.ATB().Register(host.Memory, seg.Addr, seg.Size)
		if err != nil {
			return err
		}
		veVEHVA, err := card.Mem.ATB().Register(card.Mem.Memory, veBuf, cfg.MaxSize)
		if err != nil {
			return err
		}
		p.Sleep(2 * card.Timing.DMAATBRegister)

		udma := dma.NewUserDMA(card.Timing, card.Mem.ATB(), card.Path)
		instr := dma.NewInstr(card.Timing, card.Mem.ATB(), card.Path)
		instBuf := make([]byte, cfg.InstMaxSize)

		for sz := cfg.MinSize; sz <= cfg.MaxSize; sz *= 2 {
			buf := instBuf[:min(sz, cfg.InstMaxSize)]
			ops := []func() error{ // one per series, in order
				// VEO write: VH → VE via privileged DMA.
				func() error { return card.DMAWrite(p, uint64(veBuf), uint64(hostBuf), sz) },
				// VEO read: VE → VH.
				func() error { return card.DMARead(p, uint64(hostBuf), uint64(veBuf), sz) },
				// User DMA read: VH shm → VE local (the ve_dma_post_wait API).
				func() error { return udma.Post(p, dma.API, pcie.Down, veVEHVA, shmVEHVA, sz) },
				// User DMA write: VE local → VH shm.
				func() error { return udma.Post(p, dma.API, pcie.Up, shmVEHVA, veVEHVA, sz) },
				// LHM: load host memory words into the VE.
				func() error { return instr.LoadBytes(p, shmVEHVA, buf) },
				// SHM: store VE words into host memory.
				func() error { return instr.StoreBytes(p, shmVEHVA, buf) },
			}
			if sz > cfg.InstMaxSize {
				ops = ops[:4] // SHM/LHM stop at InstMaxSize
			}
			for i, op := range ops {
				us, err := timedLoop(p, cfg.Warmup, cfg.Reps, op)
				if err != nil {
					return fmt.Errorf("bench: %s %s at %s: %w",
						series[i].Method, series[i].Direction, sizeLabel(sz), err)
				}
				series[i].Points = append(series[i].Points, Point{Size: sz, GiBps: gibps(sz, us), US: us})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// TableIV reduces a Fig. 10 sweep to the paper's Table IV: the maximum
// bandwidth per method and direction.
type TableIVRow struct {
	Method     string
	DownGiBps  float64 // VH ⇒ VE
	UpGiBps    float64 // VE ⇒ VH
	DownAtSize int64
	UpAtSize   int64
}

// TableIV computes the max-bandwidth table from sweep series.
func TableIV(series []Series) []TableIVRow {
	rows := map[string]*TableIVRow{}
	order := []string{}
	for _, s := range series {
		r, ok := rows[s.Method]
		if !ok {
			r = &TableIVRow{Method: s.Method}
			rows[s.Method] = r
			order = append(order, s.Method)
		}
		max := s.Max()
		if s.Direction == DirDown {
			r.DownGiBps, r.DownAtSize = max.GiBps, max.Size
		} else {
			r.UpGiBps, r.UpAtSize = max.GiBps, max.Size
		}
	}
	out := make([]TableIVRow, 0, len(order))
	for _, m := range order {
		out = append(out, *rows[m])
	}
	return out
}

// Crossover reports the largest size at which series a is still faster than
// series b (lower per-op time), or 0 when a never wins: the §V-B crossovers
// of Anchors.
func Crossover(a, b Series) int64 {
	var last int64
	for _, pa := range a.Points {
		pb, ok := b.At(pa.Size)
		if !ok {
			continue
		}
		if pa.US < pb.US {
			last = pa.Size
		}
	}
	return last
}
