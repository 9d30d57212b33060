// Package hamoffload is a Go reproduction of "Heterogeneous Active Messages
// for Offloading on the NEC SX-Aurora TSUBASA" (Noack, Focht, Steinke;
// IPDPS Workshops / HCW 2019).
//
// It contains a full port of the HAM/HAM-Offload programming model to Go
// (packages offload and internal/ham, internal/core), the paper's SX-Aurora
// messaging protocol (internal/backend/ring) over its two placements — VEO
// (internal/backend/veob, Fig. 5) and DMA (internal/backend/dmab, Fig. 8) —
// a portable TCP/IP backend
// (internal/backend/tcpb), and — because no Vector Engine hardware or Go
// toolchain for it exists — a calibrated discrete-event simulation of the
// whole SX-Aurora A300-8 platform (machine and the internal substrate
// packages) that reproduces the paper's measured behaviour.
//
// See README.md for a tour, DESIGN.md for the architecture and substitution
// rationale, and EXPERIMENTS.md for the paper-vs-measured numbers. The
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation; cmd/hambench prints them in paper-style form.
package hamoffload
