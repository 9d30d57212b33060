// Package ib models the optional InfiniBand interconnect of Fig. 3 between
// Vector Hosts of different SX-Aurora nodes. The paper's outlook (§VI)
// anticipates heterogeneous MPI jobs spanning hosts and VEs across nodes —
// "HAM-Offload applications will also benefit from remote offloading
// capabilities, again without changes in the application code". The mpib
// backend builds exactly that on this link model.
package ib

import (
	"fmt"

	"hamoffload/internal/simtime"
	"hamoffload/internal/units"
)

// Params describes one InfiniBand HCA/link (EDR 4x defaults).
type Params struct {
	// Latency is the one-way MPI-level latency between two hosts (wire +
	// HCA + software stack).
	Latency simtime.Duration
	// Bandwidth is the sustained payload bandwidth in bytes/second.
	Bandwidth float64
	// PerMessage is the per-message CPU overhead on each side (matching,
	// completion handling).
	PerMessage simtime.Duration
	// MTU is the message chunk size for serialization modelling.
	MTU units.Bytes
}

// DefaultParams returns EDR-class numbers: ~1.5 µs latency, ~11 GiB/s.
func DefaultParams() Params {
	return Params{
		Latency:    1500 * simtime.Nanosecond,
		Bandwidth:  11 * float64(units.GiB),
		PerMessage: 300 * simtime.Nanosecond,
		MTU:        4 * units.KiB,
	}
}

// Validate rejects non-physical parameters.
func (p Params) Validate() error {
	if p.Latency <= 0 || p.Bandwidth < 1 || p.MTU <= 0 || p.PerMessage < 0 {
		return fmt.Errorf("ib: invalid parameters %+v", p)
	}
	return nil
}

// Fabric is a full-crossbar IB network between n hosts: each ordered pair
// has an independent send channel (send-side serialization), which models a
// non-blocking switch well enough for host counts this small.
type Fabric struct {
	params Params
	n      int
	chans  []*simtime.Semaphore // [src*n+dst]
}

// NewFabric creates the network for n hosts.
func NewFabric(eng *simtime.Engine, n int, p Params) (*Fabric, error) {
	if n < 2 {
		return nil, fmt.Errorf("ib: need at least 2 hosts, got %d", n)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{params: p, n: n,
		chans: make([]*simtime.Semaphore, n*n)}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			f.chans[s*n+d] = simtime.NewSemaphore(eng, fmt.Sprintf("ib-%d-%d", s, d), 1)
		}
	}
	return f, nil
}

// Hosts returns the number of hosts in the fabric.
func (f *Fabric) Hosts() int { return f.n }

// Send models an eager-protocol message of n payload bytes from src to dst:
// per-message overhead, serialization on the (src,dst) channel, propagation.
// The calling process is the sender; the function returns when the payload
// has arrived at dst (rendezvous-style completion, which is what a blocking
// forwarding proxy needs).
func (f *Fabric) Send(p *simtime.Proc, src, dst int, n int64) error {
	if src == dst || src < 0 || dst < 0 || src >= f.n || dst >= f.n {
		return fmt.Errorf("ib: bad route %d -> %d", src, dst)
	}
	if n < 0 {
		return fmt.Errorf("ib: negative message size %d", n)
	}
	ch := f.chans[src*f.n+dst]
	p.Sleep(f.params.PerMessage)
	wire := simtime.BytesOver(n, f.params.Bandwidth)
	ch.Use(p, 1, wire)
	p.Sleep(f.params.Latency + f.params.PerMessage)
	return nil
}
