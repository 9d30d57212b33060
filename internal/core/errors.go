package core

import (
	"errors"
	"fmt"
)

// The typed error taxonomy of the fault-tolerant runtime. Backends wrap
// these sentinels (with %w) so applications can classify failures with
// errors.Is regardless of which transport produced them.
var (
	// ErrNodeFailed marks a permanent node failure: the VE process crashed,
	// the connection dropped, or the node was killed. In-flight futures fail
	// with it and new offloads to the node are rejected until the node is
	// recovered (Runtime.RecoverNode).
	ErrNodeFailed = errors.New("ham: node failed")

	// ErrOffloadTimeout marks an offload whose response did not arrive
	// within the backend's configured timeout on the simulated clock.
	ErrOffloadTimeout = errors.New("ham: offload timed out")

	// ErrPayloadCorrupt marks a message whose checksum did not verify; the
	// payload was damaged in transit. It is transient: retransmission draws
	// fresh transfers.
	ErrPayloadCorrupt = errors.New("ham: payload corrupt")

	// ErrUnsupported marks an operation this node's backend cannot perform
	// at all: recovering a node it has no way to re-dial, initiating from a
	// serve-only node, serving on an initiate-only one. It is permanent.
	ErrUnsupported = errors.New("ham: not supported by this backend")

	// ErrTargetOnly and ErrHostOnly are what the TargetOnly and HostOnly
	// stubs fail with; both are ErrUnsupported.
	ErrTargetOnly = fmt.Errorf("%w: targets cannot initiate offloads or transfers", ErrUnsupported)
	ErrHostOnly   = fmt.Errorf("%w: the host node does not serve active messages", ErrUnsupported)
)

// transienter is the classification interface injected faults implement
// (faults.Error); core stays decoupled from the faults package by chasing
// it through the wrap chain instead of importing the type.
type transienter interface{ Transient() bool }

// IsTransient reports whether err is worth retrying: corrupt payloads,
// injected transfer errors, dropped-connection resets. Node failures and
// timeouts are not — a dead node needs recovery, and a timed-out offload
// already exhausted its budget.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrNodeFailed) || errors.Is(err, ErrOffloadTimeout) {
		return false
	}
	if errors.Is(err, ErrPayloadCorrupt) {
		return true
	}
	var t transienter
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}
