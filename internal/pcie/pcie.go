// Package pcie models the PCIe Gen3 x16 fabric between the Vector Host's
// sockets and the Vector Engine cards, including TLP payload/header overhead
// (256 B max payload for the VE → 91 % efficiency → 13.4 GiB/s achievable,
// paper §V), full-duplex per-direction occupancy, propagation latency, and
// the UPI hop taken when offloading from the socket that does not host the
// VE's PCIe switch (Fig. 3, §V-A).
package pcie

import (
	"fmt"

	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
)

// Direction of a transfer over a link.
type Direction int

const (
	// Down is VH → VE (writes toward the device).
	Down Direction = iota
	// Up is VE → VH (reads toward the host).
	Up
)

func (d Direction) String() string {
	if d == Down {
		return "VH=>VE"
	}
	return "VE=>VH"
}

// Link is the PCIe connection of one VE card: two independent simplex
// channels (PCIe is full duplex), each serving transfers FIFO.
type Link struct {
	ve      int
	timing  topology.Timing
	channel [2]*simtime.Semaphore
}

// NewLink creates the link for VE ve using the given timing model.
func NewLink(eng *simtime.Engine, ve int, t topology.Timing) *Link {
	return &Link{
		ve:     ve,
		timing: t,
		channel: [2]*simtime.Semaphore{
			simtime.NewSemaphore(eng, fmt.Sprintf("pcie-ve%d-down", ve), 1),
			simtime.NewSemaphore(eng, fmt.Sprintf("pcie-ve%d-up", ve), 1),
		},
	}
}

// WireTime returns the serialization delay of n payload bytes: the time the
// TLPs (payload plus per-TLP header overhead) occupy the link at the raw
// line rate.
func (l *Link) WireTime(n int64) simtime.Duration {
	if n <= 0 {
		return 0
	}
	payload := l.timing.PCIeMaxPayload.Int64()
	tlps := (n + payload - 1) / payload
	wire := n + tlps*l.timing.PCIeTLPHeader.Int64()
	return simtime.BytesOver(wire, l.timing.PCIeRawRate)
}

// Occupy serializes n bytes in the given direction, blocking while earlier
// transfers in the same direction drain. It does not include propagation
// latency; callers add Latency separately so that pipelined engines can
// overlap occupancy with their own bookkeeping. It returns WireTime(n), for
// an engine that paces the rest of a transfer itself.
//
// A fail-slow rule at SitePCIe stretches the occupancy itself — the model
// of a link renegotiated to a lower generation speed — so a degraded link
// slows every transfer that crosses it, in both directions.
func (l *Link) Occupy(p *simtime.Proc, dir Direction, n int64) simtime.Duration {
	if n <= 0 {
		return 0
	}
	p.Pay() // the channel and its fault site are shared by every user of the link
	wire := l.WireTime(n)
	occupy := wire
	if l.timing.Faults != nil {
		if d := l.timing.Faults.SlowDelay(p.Now(), faults.SitePCIe, l.ve, wire); d > 0 {
			l.timing.Tracer.Instant(p, "fault", "slow-down pcie")
			occupy += d
		}
	}
	l.channel[dir].Use(p, 1, occupy)
	return wire
}

// Latency returns the one-way propagation latency of the link.
func (l *Link) Latency() simtime.Duration { return l.timing.PCIeLatency }

// VE returns the id of the VE card this link attaches.
func (l *Link) VE() int { return l.ve }

// Err consults the fault injector's link-down schedule: it returns a
// transient error while the link is inside a down window, and nil — at zero
// cost — without an injector. The DMA engines check it before moving bytes,
// so a down link fails transfers instead of delivering them.
func (l *Link) Err(p *simtime.Proc) error {
	if l.timing.Faults.LinkArmed(l.ve) {
		p.Pay() // the VH's and the VE's transfers share the link's op counter
	}
	return l.timing.Faults.LinkError(p.Now(), l.ve)
}

// Path is a route between a VH process pinned to a socket and one VE,
// accumulating the UPI hop when the route crosses sockets.
type Path struct {
	Link    *Link
	UPIHops int
	upi     simtime.Duration // latency of one UPI hop; a Path travels by value, so it carries this, not the Timing table
}

// OneWayLatency is the propagation latency along the path in one direction.
func (pa Path) OneWayLatency() simtime.Duration {
	return pa.Link.Latency() + simtime.Duration(pa.UPIHops)*pa.upi
}

// Err reports the path's injected link-down state (see Link.Err).
func (pa Path) Err(p *simtime.Proc) error { return pa.Link.Err(p) }

// Fabric is the whole PCIe/UPI interconnect of a system: one link per VE.
type Fabric struct {
	sys    *topology.System
	timing topology.Timing
	links  []*Link
}

// NewFabric builds the interconnect for sys.
func NewFabric(eng *simtime.Engine, sys *topology.System, t topology.Timing) (*Fabric, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{sys: sys, timing: t}
	for _, ve := range sys.VEs {
		f.links = append(f.links, NewLink(eng, ve.ID, t))
	}
	return f, nil
}

// Link returns the link of VE ve.
func (f *Fabric) Link(ve int) (*Link, error) {
	if ve < 0 || ve >= len(f.links) {
		return nil, fmt.Errorf("pcie: no link for VE %d", ve)
	}
	return f.links[ve], nil
}

// PathFrom returns the route from a process pinned on socket to VE ve.
func (f *Fabric) PathFrom(socket, ve int) (Path, error) {
	crosses, err := f.sys.CrossesUPI(socket, ve)
	if err != nil {
		return Path{}, err
	}
	l, err := f.Link(ve)
	if err != nil {
		return Path{}, err
	}
	hops := 0
	if crosses {
		hops = 1
	}
	return Path{Link: l, UPIHops: hops, upi: f.timing.UPILatency}, nil
}
