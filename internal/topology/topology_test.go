package topology

import (
	"testing"

	"hamoffload/internal/units"
)

func TestA300_8MatchesTableIII(t *testing.T) {
	s := A300_8()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(s.Sockets) != 2 {
		t.Errorf("sockets = %d, want 2", len(s.Sockets))
	}
	if len(s.VEs) != 8 {
		t.Errorf("VEs = %d, want 8", len(s.VEs))
	}
	if len(s.Switches) != 2 {
		t.Errorf("switches = %d, want 2", len(s.Switches))
	}
	if s.VHMemory != 192*units.GiB {
		t.Errorf("VH memory = %v, want 192GiB", s.VHMemory)
	}
	if s.VEOSVer != "1.3.2-4dma" || s.VEOVer != "1.3.2a" {
		t.Errorf("software versions = %q/%q", s.VEOSVer, s.VEOVer)
	}
}

func TestTableISpecs(t *testing.T) {
	cpu := XeonGold6126()
	if cpu.Cores != 12 || cpu.Threads != 24 || cpu.VectorWidthF64 != 8 {
		t.Errorf("CPU core spec wrong: %+v", cpu)
	}
	if cpu.PeakGFLOPS != 998.4 || cpu.ClockGHz != 2.6 {
		t.Errorf("CPU perf spec wrong: %+v", cpu)
	}
	if cpu.MaxMemory != 384*units.GiB || cpu.MemoryBandwidth != 128*units.GB {
		t.Errorf("CPU memory spec wrong: %+v", cpu)
	}

	ve := VEType10B()
	if ve.Cores != 8 || ve.VectorWidthF64 != 256 || ve.ClockGHz != 1.4 {
		t.Errorf("VE core spec wrong: %+v", ve)
	}
	if ve.PeakGFLOPS != 2150.4 {
		t.Errorf("VE peak = %v, want 2150.4", ve.PeakGFLOPS)
	}
	if ve.MaxMemory != 48*units.GiB {
		t.Errorf("VE memory = %v, want 48GiB", ve.MaxMemory)
	}
	if ve.MemoryBandwidth.GBs() != 1228.8 {
		t.Errorf("VE bandwidth = %v GB/s, want 1228.8", ve.MemoryBandwidth.GBs())
	}
	if ve.FMAPipes != 3 || ve.ALUPipes != 2 || ve.VectorRegisters != 64 {
		t.Errorf("VE microarch spec wrong: %+v", ve)
	}
	// Peak-performance sanity: 8 cores × 3 FMA pipes × 32 lanes × 2 flops ×
	// 1.4 GHz = 2150.4 GFLOPS — the spec table is internally consistent.
	derived := float64(ve.Cores*ve.FMAPipes*ve.SIMDLanes*2) * ve.ClockGHz
	if diff := derived - ve.PeakGFLOPS; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("derived peak %v != spec %v", derived, ve.PeakGFLOPS)
	}
}

func TestPCIeRouting(t *testing.T) {
	s := A300_8()
	// Fig. 3: VEs 0-3 behind switch 0 on socket 0, VEs 4-7 behind switch 1
	// on socket 1.
	for ve := 0; ve < 8; ve++ {
		sock, err := s.SocketOfVE(ve)
		if err != nil {
			t.Fatalf("SocketOfVE(%d): %v", ve, err)
		}
		want := ve / 4
		if sock != want {
			t.Errorf("SocketOfVE(%d) = %d, want %d", ve, sock, want)
		}
	}
	cross, err := s.CrossesUPI(1, 0)
	if err != nil || !cross {
		t.Errorf("CrossesUPI(1, 0) = %v,%v want true", cross, err)
	}
	cross, err = s.CrossesUPI(0, 0)
	if err != nil || cross {
		t.Errorf("CrossesUPI(0, 0) = %v,%v want false", cross, err)
	}
	if _, err := s.SocketOfVE(99); err == nil {
		t.Error("SocketOfVE(99) should fail")
	}
	if _, err := s.CrossesUPI(9, 0); err == nil {
		t.Error("CrossesUPI with bad socket should fail")
	}
}

func TestValidateCatchesBrokenTopology(t *testing.T) {
	s := A300_8()
	s.VEs[3].Switch = 7
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted VE on missing switch")
	}
	s = A300_8()
	s.Switches[0].Socket = -1
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted switch on missing socket")
	}
	if err := (&System{Name: "empty"}).Validate(); err == nil {
		t.Error("Validate accepted empty system")
	}
}

func TestDefaultTimingValid(t *testing.T) {
	tm := DefaultTiming()
	if err := tm.Validate(); err != nil {
		t.Fatalf("DefaultTiming invalid: %v", err)
	}
	// The TLP efficiency must reproduce the paper's 91 % ⇒ 13.4 GiB/s bound.
	eff := float64(tm.PCIeMaxPayload) / float64(tm.PCIeMaxPayload+tm.PCIeTLPHeader)
	if eff < 0.90 || eff > 0.92 {
		t.Errorf("PCIe efficiency = %v, want ≈0.91", eff)
	}
	achievable := tm.PCIeRawRate * eff / float64(units.GiB)
	if achievable < 13.2 || achievable > 13.6 {
		t.Errorf("achievable = %.2f GiB/s, want ≈13.4", achievable)
	}
}

func TestTimingValidateRejectsBadValues(t *testing.T) {
	bad := DefaultTiming()
	bad.PCIeRawRate = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero PCIe rate")
	}
	bad = DefaultTiming()
	bad.HostPageSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero page size")
	}
	bad = DefaultTiming()
	bad.LHMPerWord = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero LHM cost")
	}
}
