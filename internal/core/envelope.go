package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Fault-tolerant message envelope. When a runtime has fault tolerance
// enabled, every offload request travels as
//
//	[u32 magic][u32 crc][u64 seq][u8 kind][payload]
//
// with crc = CRC-32 (IEEE) over seq..payload, so any damaged byte — header
// or payload — fails verification. The target answers with the same frame
// (kind envResponse, the response as payload) or, on a checksum mismatch,
// an empty envNack, and remembers recent sequence numbers with their sealed
// responses so a retransmitted request is answered from cache instead of
// re-executing the handler: at-most-once execution survives retries.
//
// The envelope is strictly opt-in on the initiator, which keeps un-faulted
// wire traffic byte-identical to the non-FT protocol. Detection on the
// target is unambiguous: a plain HAM request starts with a u32 handler key,
// a small index into the sorted handler table, which can never equal the
// magic.

const (
	envMagic  uint32 = 0xFA17C0DE
	envHeader        = 4 + 4 + 8 + 1

	envRequest  byte = 1
	envResponse byte = 2
	envNack     byte = 3
)

// sealMessage frames payload in an envelope of the given kind.
func sealMessage(kind byte, seq uint64, payload []byte) []byte {
	out := make([]byte, envHeader+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], envMagic)
	binary.LittleEndian.PutUint64(out[8:16], seq)
	out[16] = kind
	copy(out[envHeader:], payload)
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(out[8:]))
	return out
}

// openMessage undoes sealMessage. enveloped is false when msg does not
// carry the magic (a plain HAM message). A magic match with a failing
// checksum returns enveloped = true and an ErrPayloadCorrupt error; the
// other fields are then untrustworthy.
func openMessage(msg []byte) (kind byte, seq uint64, payload []byte, enveloped bool, err error) {
	if len(msg) < envHeader || binary.LittleEndian.Uint32(msg[0:4]) != envMagic {
		return 0, 0, nil, false, nil
	}
	if crc32.ChecksumIEEE(msg[8:]) != binary.LittleEndian.Uint32(msg[4:8]) {
		return 0, 0, nil, true, fmt.Errorf("%w: envelope checksum mismatch", ErrPayloadCorrupt)
	}
	return msg[16], binary.LittleEndian.Uint64(msg[8:16]), msg[envHeader:], true, nil
}

// respCache is the target-side dedup window: the sealed responses of the
// most recent executed sequence numbers, bounded FIFO. 64 entries is far
// beyond any backend's in-flight window (slot counts are single-digit),
// so a retransmission always finds its original answer.
type respCache struct {
	resp  map[uint64][]byte
	order []uint64
	limit int
}

// newRespCache runs once per runtime, on the first enveloped request.
func newRespCache() *respCache {
	return &respCache{resp: make(map[uint64][]byte), limit: 64}
}

func (c *respCache) get(seq uint64) ([]byte, bool) {
	r, ok := c.resp[seq]
	return r, ok
}

func (c *respCache) put(seq uint64, sealed []byte) {
	if _, dup := c.resp[seq]; dup {
		return
	}
	if len(c.order) >= c.limit {
		delete(c.resp, c.order[0])
		c.order = c.order[1:]
	}
	c.resp[seq] = sealed
	c.order = append(c.order, seq)
}
