package core

import "encoding/binary"

// Test hooks for the external core_test package: the flow and batch frame
// parsers, so the wire-bytes guard tests can take captured frames apart.
// (The external package cannot see the unexported parsers, and this package
// cannot import a backend to build frames end-to-end without a cycle.)

// FlowHeaderLen is the size of the flow frame prefix (magic + trace ID).
const FlowHeaderLen = flowHeader

// OpenFlowFrame exposes openFlow.
func OpenFlowFrame(msg []byte) (id uint64, inner []byte, ok bool) { return openFlow(msg) }

// OpenBatchFrame exposes openBatch.
func OpenBatchFrame(msg []byte) (entries [][]byte, isBatch bool, err error) {
	return openBatch(msg)
}

// sealBatch frames msgs into one batch wire message: the frame oracle of the
// batch tests (the runtime itself builds frames in place, call by call).
func sealBatch(msgs [][]byte) []byte {
	n := batHeader
	for _, m := range msgs {
		n += batPerMsg + len(m)
	}
	out := make([]byte, batHeader, n)
	binary.LittleEndian.PutUint32(out[0:4], batMagic)
	binary.LittleEndian.PutUint32(out[4:8], uint32(len(msgs)))
	for _, m := range msgs {
		var l [batPerMsg]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(m)))
		out = append(out, l[:]...)
		out = append(out, m...)
	}
	return out
}

// openBatch undoes sealBatch into a fresh entry list.
func openBatch(msg []byte) (msgs [][]byte, isBatch bool, err error) {
	return openBatchInto(nil, msg)
}
