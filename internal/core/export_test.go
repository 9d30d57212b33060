package core

import "encoding/binary"

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
