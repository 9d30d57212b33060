// Fixture for the flagorder analyzer. memdev mimics the write surface of
// the protocol layers (hostmem/HBM/VEO); the flag classification is driven
// by the real slots.Encode and by *Flag* address helpers, exactly as in
// dmab/veob.
package flagorder

import "hamoffload/internal/backend/slots"

type memdev struct{}

func (memdev) WriteAt(b []byte, addr uint64) error    { return nil }
func (memdev) WriteUint64(addr, v uint64) error       { return nil }
func (memdev) StoreBytes(addr uint64, b []byte) error { return nil }

func recvFlagOff(slot int) uint64 { return uint64(slot * slots.FlagBits) }
func recvBufOff(slot int) uint64  { return 4096 }

// transport mimics the ring transports' write surface: the protocol orders
// calls on an interface, and a method whose name contains Flag publishes.
type transport interface {
	WriteMessage(slot int, msg []byte) error
	PublishFlag(slot int, word uint64) error
	PushResult(slot int, inline, overflow []byte) error
	PublishResultFlag(slot int, word uint64) error
}

// --- accepted idioms ---

// The ring's host and target sequences: payload through the interface, then
// the publish.
func goodRingCall(t transport, msg []byte, word uint64) {
	_ = t.WriteMessage(0, msg)
	_ = t.PublishFlag(0, word)
}

func goodRingRespond(t transport, resp []byte, word uint64) {
	_ = t.PushResult(0, resp, nil)
	_ = t.PublishResultFlag(0, word)
}

// The canonical Fig. 8 send: payload first, flag last.
func goodSend(m memdev, msg []byte, seq uint32) {
	_ = m.WriteAt(msg, recvBufOff(0))
	_ = m.WriteUint64(recvFlagOff(0), slots.Encode(seq, len(msg)))
}

// A second flag write after the first is a re-publish, not a payload race.
func goodDoubleFlag(m memdev, seq uint32) {
	_ = m.WriteUint64(recvFlagOff(0), slots.Encode(seq, 0))
	_ = m.WriteUint64(recvFlagOff(1), slots.Encode(seq, 0))
}

// Loop iterations are independent: the flag of iteration i precedes the
// payload of iteration i+1 only across the back edge.
func goodLoop(m memdev, msgs [][]byte, seq uint32) {
	for i, msg := range msgs {
		_ = m.WriteAt(msg, recvBufOff(i))
		_ = m.WriteUint64(recvFlagOff(i), slots.Encode(seq, len(msg)))
	}
}

// The flag on the early-return path cannot reach the slow path's payload.
func goodBranchIsolated(m memdev, msg []byte, seq uint32, fast bool) {
	if fast {
		_ = m.WriteUint64(recvFlagOff(0), slots.Encode(seq, 0))
		return
	}
	_ = m.WriteAt(msg, recvBufOff(0))
	_ = m.WriteUint64(recvFlagOff(0), slots.Encode(seq, len(msg)))
}

// --- violations ---

// Straight-line payload-after-flag: the receiver may read a half-written
// message.
func badSend(m memdev, msg []byte, seq uint32) {
	_ = m.WriteUint64(recvFlagOff(0), slots.Encode(seq, len(msg)))
	_ = m.WriteAt(msg, recvBufOff(0)) // want `WriteAt may execute after the flag publish at line \d+`
}

// The overflow branch writes payload after the flag was already raised.
func badOverflow(m memdev, msg []byte, seq uint32, over bool) {
	_ = m.WriteUint64(recvFlagOff(0), slots.Encode(seq, len(msg)))
	if over {
		_ = m.StoreBytes(recvBufOff(1), msg) // want `StoreBytes may execute after the flag publish at line \d+`
	}
}

// Inside one loop body the same-iteration order still matters.
func badLoop(m memdev, msgs [][]byte, seq uint32) {
	for i, msg := range msgs {
		_ = m.WriteUint64(recvFlagOff(i), slots.Encode(seq, len(msg)))
		_ = m.WriteAt(msg, recvBufOff(i)) // want `WriteAt may execute after the flag publish at line \d+`
	}
}

// A *Flag* address helper marks a flag write even without slots.Encode.
func badFlagHelper(m memdev, msg []byte, word uint64) {
	_ = m.WriteUint64(recvFlagOff(0), word)
	_ = m.WriteAt(msg, recvBufOff(0)) // want `WriteAt may execute after the flag publish at line \d+`
}

// A publish through the transport interface is a flag write by its name
// alone — no slots.Encode or address helper in sight.
func badRingCall(t transport, msg []byte, word uint64) {
	_ = t.PublishFlag(0, word)
	_ = t.WriteMessage(0, msg) // want `WriteMessage may execute after the flag publish at line \d+`
}

// The retried respond must re-push before it re-publishes.
func badRingRespond(t transport, resp []byte, word uint64, big bool) {
	_ = t.PublishResultFlag(0, word)
	if big {
		_ = t.PushResult(0, resp[:8], resp[8:]) // want `PushResult may execute after the flag publish at line \d+`
	}
}

// Suppression works as everywhere else.
func suppressed(m memdev, msg []byte, seq uint32) {
	_ = m.WriteUint64(recvFlagOff(0), slots.Encode(seq, len(msg)))
	_ = m.WriteAt(msg, recvBufOff(0)) //lint:allow flagorder fixture: proves suppression
}
