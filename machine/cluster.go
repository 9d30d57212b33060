package machine

import (
	"fmt"

	"hamoffload/internal/backend/mpib"
	"hamoffload/internal/core"
	"hamoffload/internal/ib"
	"hamoffload/internal/simtime"
	"hamoffload/internal/veos"
)

// Cluster is several simulated SX-Aurora nodes sharing one simulation engine
// and connected through an InfiniBand fabric — the platform of the paper's
// §VI outlook, where HAM-Offload applications offload to remote Vector
// Engines without code changes.
type Cluster struct {
	Eng   *simtime.Engine
	Nodes []*Machine
	IB    *ib.Fabric
}

// NewCluster builds n identical machines from cfg plus the IB network.
func NewCluster(n int, cfg Config) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("machine: a cluster needs at least 2 nodes, got %d", n)
	}
	eng := simtime.NewEngine()
	c := &Cluster{Eng: eng}
	for i := 0; i < n; i++ {
		m, err := newWithEngine(eng, fmt.Sprintf("m%d-", i), cfg)
		if err != nil {
			return nil, fmt.Errorf("machine: building cluster node %d: %w", i, err)
		}
		c.Nodes = append(c.Nodes, m)
	}
	fab, err := ib.NewFabric(eng, n, ib.DefaultParams())
	if err != nil {
		return nil, err
	}
	c.IB = fab
	return c, nil
}

// RunMain runs fn as the first machine's VH program and drives the shared
// simulation until it returns.
func (c *Cluster) RunMain(fn func(p *Proc) error) error {
	var appErr error
	c.Eng.Spawn("vh-main", func(p *simtime.Proc) {
		appErr = fn(p)
		c.Eng.Stop()
	})
	runErr := c.Eng.Run()
	c.Eng.Shutdown()
	if appErr != nil {
		return appErr
	}
	return runErr
}

// VENodes returns the application node ids of every VE in the cluster —
// machine-major, 1..N, matching ConnectCluster's numbering: machine m's
// first VE is VENodes()[m*len(c.Nodes[0].Cards)].
func (c *Cluster) VENodes() []core.NodeID {
	var nodes []core.NodeID
	for _, m := range c.Nodes {
		for range m.Cards {
			nodes = append(nodes, core.NodeID(len(nodes)+1))
		}
	}
	return nodes
}

// ConnectCluster sets up HAM-Offload across the whole cluster: machine 0's
// VH is node 0; every machine's VEs follow machine-major as nodes 1..N.
// Local VEs use the DMA protocol directly; remote VEs are reached over
// InfiniBand through a proxy rank on their machine's VH.
func ConnectCluster(p *Proc, c *Cluster, opts ProtocolOptions) (*core.Runtime, error) {
	cards := make([][]*veos.Card, len(c.Nodes))
	for i, m := range c.Nodes {
		cards[i] = m.Cards
	}
	b, err := mpib.Connect(p, c.Eng, c.IB, cards, opts.dmaOptions())
	if err != nil {
		return nil, err
	}
	return opts.runtime(b, "x86_64-vh-cluster", "mpib", &c.Nodes[0].Timing, p), nil
}
