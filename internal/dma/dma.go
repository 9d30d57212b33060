// Package dma models the three data-movement engines of the SX-Aurora
// platform (paper §I-B, §IV-A):
//
//   - the privileged (system) DMA engine, shared by all cores of one VE and
//     driven by the VEOS DMA manager, which must translate VH virtual
//     addresses to physical on the fly (naively per page, or in bulk
//     overlapped with the transfer as in VEOS 1.3.2-4dma);
//   - the per-core user DMA engine, programmed directly from VE code against
//     pre-registered DMAATB entries, with no OS interaction;
//   - the LHM/SHM instructions, which load/store single 64-bit words of
//     registered host memory from VE code.
//
// All engines move real bytes between the simulated memories and advance
// simulated time according to the calibrated Timing model.
package dma

import (
	"fmt"

	"hamoffload/internal/faults"
	"hamoffload/internal/mem"
	"hamoffload/internal/pcie"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/vemem"
)

// Span names per pcie.Direction, built once: a transfer must not concatenate
// a label for a tracer that may be nil.
var (
	spanUserDMA = [2]string{pcie.Down: "user-dma " + pcie.Down.String(), pcie.Up: "user-dma " + pcie.Up.String()}
	spanWire    = [2]string{pcie.Down: "pcie " + pcie.Down.String(), pcie.Up: "pcie " + pcie.Up.String()}
)

// The fault helpers take the engine's Timing by pointer: it is a table of
// some forty calibration values, and copying it per hook was 5 % of a
// serving run.

// checkTransfer runs the shared fault hooks of a DMA transfer start: an
// active link-down window or a scheduled transfer error fails the transfer
// before any byte moves — a failed transfer delivers nothing.
func checkTransfer(p *simtime.Proc, t *topology.Timing, site faults.Site, path pcie.Path) error {
	if t.Faults == nil {
		return nil
	}
	if err := path.Err(p); err != nil {
		t.Tracer.Instant(p, "fault", "link-down")
		return err
	}
	if err := t.Faults.TransferError(p.Now(), site, path.Link.VE()); err != nil {
		t.Tracer.Instant(p, "fault", "dma-error "+site.String())
		return err
	}
	return nil
}

// slowDown serves a fail-slow injection at a transfer site: when the plan
// degrades this node, the transfer is delayed by the injector's verdict on
// its nominal cost (SlowDown factors, seed-derived jitter) before the
// engine starts. Zero cost without an injector; see faults.SlowDelay.
func slowDown(p *simtime.Proc, t *topology.Timing, site faults.Site, path pcie.Path, base simtime.Duration) {
	if t.Faults == nil {
		return
	}
	if d := t.Faults.SlowDelay(p.Now(), site, path.Link.VE(), base); d > 0 {
		if t.Tracer != nil {
			t.Tracer.Instant(p, "fault", "slow-down "+site.String())
		}
		p.Sleep(d)
	}
}

// corrupt flips one byte of the destination region when a bit-flip fault is
// scheduled for this transfer, after the data moved.
func corrupt(p *simtime.Proc, t *topology.Timing, site faults.Site, path pcie.Path,
	m *mem.Memory, addr mem.Addr, n int64) {
	if t.Faults == nil {
		return
	}
	off := t.Faults.Corrupt(p.Now(), site, path.Link.VE(), n)
	if off < 0 {
		return
	}
	var b [1]byte
	if m.ReadAt(b[:], addr+mem.Addr(off)) != nil {
		return
	}
	b[0] ^= 0x10
	if m.WriteAt(b[:], addr+mem.Addr(off)) != nil {
		return
	}
	if t.Tracer != nil {
		t.Tracer.Instant(p, "fault", "bit-flip "+site.String())
	}
}

func errNegativeSize(engine string, n int64) error {
	return fmt.Errorf("dma: %s transfer of negative size %d", engine, n)
}

// TranslateMode selects the VEOS DMA manager's address-translation strategy.
type TranslateMode int

const (
	// TranslateNaive performs one translation per VH page before the
	// transfer starts (pre-4dma VEOS).
	TranslateNaive TranslateMode = iota
	// TranslateBulk4DMA performs bulk translations overlapped with
	// descriptor generation and the DMA transfer (VEOS 1.3.2-4dma).
	TranslateBulk4DMA
)

func (m TranslateMode) String() string {
	if m == TranslateBulk4DMA {
		return "bulk-4dma"
	}
	return "naive"
}

// Privileged is one VE's system DMA engine as driven by the VEOS DMA
// manager. It is shared by all users of that VE; concurrent requests queue
// on the engine resource.
type Privileged struct {
	timing   topology.Timing
	mode     TranslateMode
	pageSize int64
	path     pcie.Path
	engine   *simtime.Semaphore
	hostMem  *mem.Memory
	veMem    *mem.Memory
}

// NewPrivileged creates the engine for one VE.
//
// hostPageSize is the VH page size used for translations (the huge-page
// ablation varies it); path is the PCIe route between the VEOS daemon's
// socket and the VE.
func NewPrivileged(eng *simtime.Engine, name string, t topology.Timing, mode TranslateMode,
	hostPageSize int64, path pcie.Path, hostMem, veMem *mem.Memory) *Privileged {
	return &Privileged{
		timing:   t,
		mode:     mode,
		pageSize: hostPageSize,
		path:     path,
		engine:   simtime.NewSemaphore(eng, name+"-privdma", 1),
		hostMem:  hostMem,
		veMem:    veMem,
	}
}

// translateTime returns how long address translation delays the transfer of
// n bytes starting at hostAddr whose pure wire time is wire.
func (d *Privileged) translateTime(hostAddr mem.Addr, n int64, wire simtime.Duration) simtime.Duration {
	pages := mem.PageCount(hostAddr, n, d.pageSize)
	switch d.mode {
	case TranslateBulk4DMA:
		// Bulk translation overlaps with descriptor generation and the
		// transfer itself: only translation work exceeding the wire time
		// stalls the engine, plus a fixed setup.
		overlapped := simtime.Duration(pages) * d.timing.BulkTranslatePerPage
		stall := overlapped - wire
		if stall < 0 {
			stall = 0
		}
		return d.timing.BulkTranslateFixed + stall
	default:
		return simtime.Duration(pages) * d.timing.PrivTranslatePerPage
	}
}

// Write moves n bytes from VH memory at hostAddr into VE memory at veAddr
// (direction VH→VE), as performed for veo_write_mem. The calling process is
// the VEOS DMA manager; IPC costs up to that point are charged by the veos
// package.
func (d *Privileged) Write(p *simtime.Proc, veAddr, hostAddr mem.Addr, n int64) error {
	return d.transfer(p, pcie.Down, veAddr, hostAddr, n)
}

// Read moves n bytes from VE memory at veAddr into VH memory at hostAddr
// (direction VE→VH), as performed for veo_read_mem.
func (d *Privileged) Read(p *simtime.Proc, hostAddr, veAddr mem.Addr, n int64) error {
	return d.transfer(p, pcie.Up, veAddr, hostAddr, n)
}

func (d *Privileged) transfer(p *simtime.Proc, dir pcie.Direction, veAddr, hostAddr mem.Addr, n int64) error {
	if n < 0 {
		return errNegativeSize("privileged", n)
	}
	if err := checkTransfer(p, &d.timing, faults.SitePrivDMA, d.path); err != nil {
		return err
	}
	name := "priv-dma-write"
	if dir == pcie.Up {
		name = "priv-dma-read"
	}
	defer d.timing.Tracer.Span(p, "dma", name)()
	rate := d.timing.PrivDMAWriteRate
	if dir == pcie.Up {
		rate = d.timing.PrivDMAReadRate
	}
	wire := simtime.BytesOver(n, rate)
	slowDown(p, &d.timing, faults.SitePrivDMA, d.path, wire+d.timing.PrivDMAKick)

	d.engine.Acquire(p, 1)
	p.Sleep(d.translateTime(hostAddr, n, wire))
	p.Sleep(d.timing.PrivDMAKick)
	if dir == pcie.Up {
		// The read path issues a remote descriptor fetch and synchronises
		// with the VE memory controller before data flows back.
		p.Sleep(d.timing.PrivDMAReadExtra)
	}
	endWire := d.timing.Tracer.Span(p, "pcie", spanWire[dir])
	if n > 0 {
		d.path.Link.Occupy(p, dir, n) // engine rate below link rate: charge engine rate
		// The engine's sustained rate is below the link's TLP-limited rate;
		// the residual time is engine-internal pacing.
		if extra := wire - d.path.Link.WireTime(n); extra > 0 {
			p.Sleep(extra)
		}
	}
	p.Sleep(d.path.OneWayLatency())
	endWire()
	d.engine.Release(1)

	if dir == pcie.Down {
		if err := mem.Copy(d.veMem, veAddr, d.hostMem, hostAddr, n); err != nil {
			return err
		}
		corrupt(p, &d.timing, faults.SitePrivDMA, d.path, d.veMem, veAddr, n)
		return nil
	}
	if err := mem.Copy(d.hostMem, hostAddr, d.veMem, veAddr, n); err != nil {
		return err
	}
	corrupt(p, &d.timing, faults.SitePrivDMA, d.path, d.hostMem, hostAddr, n)
	return nil
}

// UserDMA is one VE core's user DMA engine. Addresses are VEHVA and must be
// registered in the DMAATB; translation is free at transfer time because the
// DMAATB is a hardware TLB (no OS interaction, paper §IV-A).
type UserDMA struct {
	timing topology.Timing
	atb    *vemem.DMAATB
	path   pcie.Path
	engine *simtime.Semaphore
}

// NewUserDMA creates the user DMA engine of one VE core.
func NewUserDMA(eng *simtime.Engine, name string, t topology.Timing, atb *vemem.DMAATB, path pcie.Path) *UserDMA {
	return &UserDMA{
		timing: t,
		atb:    atb,
		path:   path,
		engine: simtime.NewSemaphore(eng, name+"-userdma", 1),
	}
}

// Level selects how a user-DMA transfer is issued.
type Level int

const (
	// API models ve_dma_post_wait: descriptor build in the library, post,
	// completion poll. This is what the Fig. 10 "VE User DMA" series uses.
	API Level = iota
	// Raw models a pre-built descriptor hot path as used by the HAM-Offload
	// DMA backend, paying only the hardware latency.
	Raw
)

// Post moves n bytes from srcVEHVA to dstVEHVA in direction dir and blocks
// until completion. Both ranges must be DMAATB-registered. Large transfers
// split into pipelined descriptors of at most UserDMAMaxDescriptor bytes.
func (u *UserDMA) Post(p *simtime.Proc, level Level, dir pcie.Direction, dstVEHVA, srcVEHVA mem.Addr, n int64) error {
	if n < 0 {
		return errNegativeSize("user DMA", n)
	}
	dstMem, dstAddr, err := u.atb.Translate(dstVEHVA, n)
	if err != nil {
		return err
	}
	srcMem, srcAddr, err := u.atb.Translate(srcVEHVA, n)
	if err != nil {
		return err
	}
	if err := checkTransfer(p, &u.timing, faults.SiteUserDMA, u.path); err != nil {
		return err
	}

	rate := u.timing.UserDMAWriteRate
	if dir == pcie.Down {
		rate = u.timing.UserDMAReadRate
	}
	slowDown(p, &u.timing, faults.SiteUserDMA, u.path, simtime.BytesOver(n, rate)+u.timing.UserDMAHWLatency)

	defer u.timing.Tracer.Span(p, "dma", spanUserDMA[dir])()
	u.engine.Acquire(p, 1)
	if level == API {
		p.Sleep(u.timing.UserDMAAPISetup)
	}
	p.Sleep(u.timing.UserDMAHWLatency)
	endWire := u.timing.Tracer.Span(p, "pcie", spanWire[dir])
	if n > 0 {
		// Descriptors pipeline: total time is rate-limited; per-descriptor
		// overhead is hidden behind the transfer of the previous one.
		maxDesc := u.timing.UserDMAMaxDescriptor.Int64()
		for off := int64(0); off < n; off += maxDesc {
			chunk := n - off
			if chunk > maxDesc {
				chunk = maxDesc
			}
			u.path.Link.Occupy(p, dir, chunk)
			if extra := simtime.BytesOver(chunk, rate) - u.path.Link.WireTime(chunk); extra > 0 {
				p.Sleep(extra)
			}
		}
	}
	p.Sleep(u.path.OneWayLatency())
	endWire()
	u.engine.Release(1)

	if err := mem.Copy(dstMem, dstAddr, srcMem, srcAddr, n); err != nil {
		return err
	}
	corrupt(p, &u.timing, faults.SiteUserDMA, u.path, dstMem, dstAddr, n)
	return nil
}

// Instr models the LHM and SHM instructions of the VE ISA: word-granular
// loads and stores of DMAATB-registered (host) memory, issued from VE code.
type Instr struct {
	timing topology.Timing
	atb    *vemem.DMAATB
	path   pcie.Path
	loads  int64
	stores int64
	watch  *simtime.Watch // where the poll of its watched words parks (Watch)
}

// NewInstr creates the instruction unit for one VE core.
func NewInstr(t topology.Timing, atb *vemem.DMAATB, path pcie.Path) *Instr {
	return &Instr{timing: t, atb: atb, path: path}
}

// Word is a VEHVA word that an Instr loads again and again (a flag poll),
// resolved: whether it translates, and the host or VE memory word it
// translates to, as of one DMAATB generation (vemem.DMAATB.Generation).
// LoadWord, Quiet and PeekWord resolve it again when the generation moved.
type Word struct {
	vehva mem.Addr
	gen   uint64
	ok    bool // the word translates
	word  mem.Word
}

// Word resolves the word at vehva.
func (in *Instr) Word(vehva mem.Addr) Word {
	w := Word{vehva: vehva, gen: in.atb.Generation()}
	if m, addr, err := in.atb.Translate(vehva, 8); err == nil {
		w.ok, w.word = true, m.WordAt(addr)
	}
	return w
}

// resolve brings w to the DMAATB's generation and reports whether it
// translates.
func (in *Instr) resolve(w *Word) bool {
	if w.gen != in.atb.Generation() {
		*w = in.Word(w.vehva)
	}
	return w.ok
}

// untranslated is the DMA exception of a word that does not translate.
func (in *Instr) untranslated(vehva mem.Addr) error {
	_, _, err := in.atb.Translate(vehva, 8)
	return err
}

// Loads and Stores return the number of words moved, for stats. The quiet
// loads a parked poll of a watched word passed over are counted first.
func (in *Instr) Loads() int64 {
	if in.watch != nil {
		in.watch.Settle()
	}
	return in.loads
}
func (in *Instr) Stores() int64 { return in.stores }

// LoadWord performs one LHM: an 8-byte load from w's VEHVA, translated at
// issue and read at the end. LHM is a full round trip over PCIe and does not
// pipeline.
func (in *Instr) LoadWord(p *simtime.Proc, w *Word) (uint64, error) {
	if !in.resolve(w) {
		return 0, in.untranslated(w.vehva)
	}
	if err := checkTransfer(p, &in.timing, faults.SiteLHM, in.path); err != nil {
		return 0, err
	}
	slowDown(p, &in.timing, faults.SiteLHM, in.path, in.timing.LHMPerWord)
	defer in.timing.Tracer.Span(p, "pcie", "lhm-load")()
	p.Sleep(in.LoadCost())
	in.loads++
	return w.word.Load()
}

// LoadCost is what one LoadWord takes when nothing is injected: the LHM
// round trip, plus the UPI both ways on a path that crosses sockets.
func (in *Instr) LoadCost() simtime.Duration {
	return in.timing.LHMPerWord + simtime.Duration(in.path.UPIHops)*in.timing.UPILatency*2
}

// Quiet reports whether LoadWord(w), issued at at, would do nothing but take
// LoadCost, count the load and read the word at its end: the address
// translates, no tracer records the load, and no fault rule can fire on it
// (faults.Injector.QuietLoad). A poll of the word may then park
// (simtime.Poller) — read it with PeekWord at a load's end, and count the
// loads it passed over with CountLoads. If lapse is not zero, a load issued
// at or after it may not be quiet: the answer lapses one LoadCost before a
// rule's window opens, so the poll wakes, and counts the quiet loads it
// passed over, before a rule inside the window reads the count.
func (in *Instr) Quiet(w *Word, at simtime.Time) (quiet bool, lapse simtime.Time) {
	if !in.resolve(w) || in.timing.Tracer != nil {
		return false, 0
	}
	f := in.timing.Faults
	if f == nil {
		return true, 0
	}
	if quiet, lapse = f.QuietLoad(at, in.path.Link.VE()); !quiet || lapse == 0 {
		return quiet, 0
	}
	if lapse = lapse.Add(-in.LoadCost()); at >= lapse {
		return false, 0
	}
	return true, lapse
}

// PeekWord is LoadWord's read alone: no time, no fault site, no count.
func (in *Instr) PeekWord(w *Word) (uint64, error) {
	if !in.resolve(w) {
		return 0, in.untranslated(w.vehva)
	}
	return w.word.Load()
}

// Watch makes every store that lands on w's word notify wt (mem.Memory.Watch),
// for a poll of it that parks on wt, and settles that poll before Loads is
// read. A word that does not translate is watched by nobody: its LoadWord
// faults, so its poll is never quiet.
func (in *Instr) Watch(w *Word, wt *simtime.Watch) {
	in.watch = wt
	if in.resolve(w) {
		w.word.Watch(wt)
	}
}

// CountLoads counts n quiet LoadWords that a parked poll passed over, and
// the ops they passed at their fault sites (faults.Injector.CountLoads).
func (in *Instr) CountLoads(n int64) {
	in.loads += n
	if f := in.timing.Faults; f != nil {
		f.CountLoads(in.path.Link.VE(), n)
	}
}

// StoreWord performs one SHM: an 8-byte posted store to the VEHVA.
func (in *Instr) StoreWord(p *simtime.Proc, vehva mem.Addr, v uint64) error {
	m, addr, err := in.atb.Translate(vehva, 8)
	if err != nil {
		return err
	}
	if err := checkTransfer(p, &in.timing, faults.SiteLHM, in.path); err != nil {
		return err
	}
	slowDown(p, &in.timing, faults.SiteLHM, in.path, in.timing.SHMFirstWord)
	defer in.timing.Tracer.Span(p, "pcie", "shm-store")()
	p.Sleep(in.timing.SHMFirstWord + simtime.Duration(in.path.UPIHops)*in.timing.UPILatency)
	in.stores++
	return m.WriteUint64(addr, v)
}

// StoreBytes stores data word-by-word via SHM. The first store pays the
// setup cost; subsequent posted stores pipeline at SHMPerWord. Data is
// padded to a whole word as the instruction writes 8 bytes at a time.
func (in *Instr) StoreBytes(p *simtime.Proc, vehva mem.Addr, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	padded := int64((len(data) + 7) &^ 7)
	m, addr, err := in.atb.Translate(vehva, padded)
	if err != nil {
		return err
	}
	if err := checkTransfer(p, &in.timing, faults.SiteLHM, in.path); err != nil {
		return err
	}
	words := padded / 8
	cost := in.timing.SHMFirstWord + simtime.Duration(words-1)*in.timing.SHMPerWord
	slowDown(p, &in.timing, faults.SiteLHM, in.path, cost)
	defer in.timing.Tracer.Span(p, "pcie", "shm-store")()
	p.Sleep(cost + simtime.Duration(in.path.UPIHops)*in.timing.UPILatency)
	in.stores += words
	// The last word's padding is stored as zeros behind the data rather than
	// through a padded copy of it: same bytes in memory, no buffer.
	if err := m.WriteAt(data, addr); err != nil {
		return err
	}
	if pad := padded - int64(len(data)); pad > 0 {
		var zeros [8]byte
		if err := m.WriteAt(zeros[:pad], addr+mem.Addr(len(data))); err != nil {
			return err
		}
	}
	corrupt(p, &in.timing, faults.SiteLHM, in.path, m, addr, padded)
	return nil
}

// LoadBytes loads len(out) bytes word-by-word via LHM. Every word is a full
// round trip; this is why Fig. 10 caps the LHM series at 0.01 GiB/s.
func (in *Instr) LoadBytes(p *simtime.Proc, vehva mem.Addr, out []byte) error {
	if len(out) == 0 {
		return nil
	}
	padded := int64((len(out) + 7) &^ 7)
	m, addr, err := in.atb.Translate(vehva, padded)
	if err != nil {
		return err
	}
	if err := checkTransfer(p, &in.timing, faults.SiteLHM, in.path); err != nil {
		return err
	}
	words := padded / 8
	slowDown(p, &in.timing, faults.SiteLHM, in.path, simtime.Duration(words)*in.timing.LHMPerWord)
	defer in.timing.Tracer.Span(p, "pcie", "lhm-load")()
	p.Sleep(simtime.Duration(words)*in.timing.LHMPerWord +
		simtime.Duration(in.path.UPIHops)*in.timing.UPILatency*2)
	in.loads += words
	// The last word's padding is read into a scratch word rather than through
	// a padded copy of the whole range: same bytes in out, no buffer.
	if err := m.ReadAt(out, addr); err != nil {
		return err
	}
	if pad := padded - int64(len(out)); pad > 0 {
		var scratch [8]byte
		if err := m.ReadAt(scratch[:pad], addr+mem.Addr(len(out))); err != nil {
			return err
		}
	}
	return nil
}
