package dma

import (
	"testing"

	"hamoffload/internal/pcie"
	"hamoffload/internal/simtime"
	"hamoffload/internal/units"
)

// Test hooks for the external dma_test package, which holds the engines to
// the paper's bands in bench.Anchors (this package cannot import bench
// without a cycle).

// UserDMAPeakGiBps returns the bandwidth of one 256 MiB user DMA in dir.
func UserDMAPeakGiBps(t *testing.T, dir pcie.Direction) float64 {
	t.Helper()
	r := newRig(t, 2*units.MiB)
	size := (256 * units.MiB).Int64()
	seg, err := r.host.ShmCreate(size)
	if err != nil {
		t.Fatal(err)
	}
	vAddr, err := r.ve.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	hostVEHVA, _ := r.ve.ATB().Register(r.host.Memory, seg.Addr, size)
	veVEHVA, _ := r.ve.ATB().Register(r.ve.Memory, vAddr, size)
	u := NewUserDMA(r.tm, r.ve.ATB(), r.path)
	took := r.runIn(t, func(p *simtime.Proc) {
		dst, src := hostVEHVA, veVEHVA
		if dir == pcie.Down {
			dst, src = veVEHVA, hostVEHVA
		}
		if err := u.Post(p, API, dir, dst, src, size); err != nil {
			t.Error(err)
		}
	})
	return float64(size) / float64(units.GiB) / took.Seconds()
}

// InstrPeakGiBps returns the bandwidths of SHM stores (VE→VH) and LHM loads
// (VH→VE) of 4 MiB, the sweep's cap for the instruction methods.
func InstrPeakGiBps(t *testing.T) (shm, lhm float64) {
	t.Helper()
	r := newRig(t, 2*units.MiB)
	size := (4 * units.MiB).Int64()
	seg, _ := r.host.ShmCreate(size)
	vehva, _ := r.ve.ATB().Register(r.host.Memory, seg.Addr, size)
	in := NewInstr(r.tm, r.ve.ATB(), r.path)
	buf := make([]byte, size)
	var storeT, loadT simtime.Duration
	r.runIn(t, func(p *simtime.Proc) {
		s := p.Now()
		if err := in.StoreBytes(p, vehva, buf); err != nil {
			t.Fatal(err)
		}
		storeT = p.Now().Sub(s)
		s = p.Now()
		if err := in.LoadBytes(p, vehva, buf); err != nil {
			t.Fatal(err)
		}
		loadT = p.Now().Sub(s)
	})
	shm = float64(size) / float64(units.GiB) / storeT.Seconds()
	lhm = float64(size) / float64(units.GiB) / loadT.Seconds()
	return shm, lhm
}
