package gateway

import (
	"hamoffload/internal/trace"
)

// ClassReport is one QoS class's serving accounting.
type ClassReport struct {
	Class         Class
	Admitted      int64
	RejectedQuota int64 // rejected: tenant token bucket empty
	RejectedShare int64 // rejected: class queue share full
	Completed     int64
	Failed        int64
	SLO           trace.SLOReport
	// Samples holds every completed request's latency in µs of simulated
	// time, in completion order. Populated only with Config.KeepSamples.
	Samples []float64
}

// TenantReport is one tenant's admission accounting.
type TenantReport struct {
	Name     string
	Admitted int64
	Rejected int64
}

// VEReport is one target VE's dispatch accounting.
type VEReport struct {
	Node     int
	Issued   int64
	StolenIn int64 // requests stolen into this VE while it idled
	MaxQueue int   // high-water queue depth
}

// Report is the gateway's full accounting snapshot.
type Report struct {
	Submitted int64 // admission attempts (admitted + rejected)
	Steals    int64 // steal operations performed
	Classes   []ClassReport
	Tenants   []TenantReport
	VEs       []VEReport
}

// Report snapshots the gateway's accounting. Each class's SLO report covers
// every completed request, but its latency quantiles are histogram-quantised;
// exact ranks need Config.KeepSamples, which fills ClassReport.Samples.
func (g *Gateway[R]) Report() Report {
	r := Report{Submitted: g.submitted, Steals: g.steals}
	for c := range g.classes {
		cs := &g.classes[c]
		cr := ClassReport{
			Class:         Class(c),
			Admitted:      cs.admitted,
			RejectedQuota: cs.rejectedQuota,
			RejectedShare: cs.rejectedShare,
			Completed:     cs.completed,
			Failed:        cs.failed,
			SLO:           cs.slo.Report(),
		}
		if g.cfg.KeepSamples {
			cr.Samples = append([]float64(nil), cs.samples...)
		}
		r.Classes = append(r.Classes, cr)
	}
	for i := range g.tenants {
		name := "default"
		if i < len(g.cfg.Tenants) {
			name = g.cfg.Tenants[i].Name
		}
		r.Tenants = append(r.Tenants, TenantReport{
			Name:     name,
			Admitted: g.tenants[i].admitted,
			Rejected: g.tenants[i].rejected,
		})
	}
	for vi, node := range g.nodes {
		r.VEs = append(r.VEs, VEReport{
			Node:     int(node),
			Issued:   g.issued[vi],
			StolenIn: g.stolen[vi],
			MaxQueue: g.maxQueue[vi],
		})
	}
	return r
}

// Rejected returns the total rejections across classes (quota + share).
func (r Report) Rejected() int64 {
	var n int64
	for _, c := range r.Classes {
		n += c.RejectedQuota + c.RejectedShare
	}
	return n
}
