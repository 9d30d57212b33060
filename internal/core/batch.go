package core

import (
	"encoding/binary"
	"fmt"

	"hamoffload/internal/ham"
	"hamoffload/internal/pool"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
)

// Message batching: the fixed per-message overhead of the SX-Aurora
// protocols (flag write, DMA setup, target poll — the bulk of the 6 µs
// Fig. 9 cost) is paid once per wire message, so N small offloads bound
// for the same node can amortise it by travelling as one frame:
//
//	[u32 magic][u32 count]  then per message  [u32 len][bytes]
//
// The response comes back in the same framing, one entry per request, in
// request order. Each entry is an ordinary HAM message (or, with fault
// tolerance armed, an FT envelope around one), so per-message error
// isolation, checksums and the target's dedup window all keep working
// unchanged inside a batch — the target simply dispatches the entries
// through the normal path one by one.
//
// Batching is strictly opt-in per runtime (SetBatching); with the zero
// policy every offload travels exactly as before, bit-identical on the
// wire. Like the FT envelope, frame detection on the target relies on the
// magic being far above any plain HAM handler key.

const (
	batMagic  uint32 = 0xBA7C41ED
	batHeader        = 4 + 4 // magic + count
	batPerMsg        = 4     // per-entry length prefix
)

// openBatchInto splits a batch frame, appending its entries to dst so that
// steady-state frame splitting can reuse one scratch slice instead of
// allocating an entry list per frame. isBatch is false when msg does not
// carry the magic (a plain HAM message or FT envelope). A magic match with
// broken framing — truncated entry, trailing bytes, absurd count — returns
// isBatch = true and an ErrPayloadCorrupt error. On a framing error dst is
// returned (possibly partially filled) so the caller keeps its scratch
// capacity. The returned entries alias msg and share its validity window.
//
//ham:borrowed msg
func openBatchInto(dst [][]byte, msg []byte) (msgs [][]byte, isBatch bool, err error) {
	if len(msg) < batHeader || binary.LittleEndian.Uint32(msg[0:4]) != batMagic {
		return nil, false, nil
	}
	count := int(binary.LittleEndian.Uint32(msg[4:8]))
	rest := msg[batHeader:]
	if count <= 0 || count > len(rest) {
		return dst, true, fmt.Errorf("%w: batch frame count %d for %d payload bytes",
			ErrPayloadCorrupt, count, len(rest))
	}
	msgs = dst
	for i := 0; i < count; i++ {
		if len(rest) < batPerMsg {
			return msgs, true, fmt.Errorf("%w: batch entry %d truncated", ErrPayloadCorrupt, i)
		}
		l := int(binary.LittleEndian.Uint32(rest[:batPerMsg]))
		rest = rest[batPerMsg:]
		if l < 0 || l > len(rest) {
			return msgs, true, fmt.Errorf("%w: batch entry %d claims %d of %d bytes",
				ErrPayloadCorrupt, i, l, len(rest))
		}
		//lint:allow borrowck the entries alias the inbound frame by design; Dispatch consumes them before the serve loop reuses it
		msgs = append(msgs, rest[:l])
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return msgs, true, fmt.Errorf("%w: %d trailing bytes after batch", ErrPayloadCorrupt, len(rest))
	}
	return msgs, true, nil
}

// BatchPolicy drives when a Batcher flushes a node's queue. The zero value
// disables batching entirely: BatchAdd degrades to a plain Async and the
// wire bytes stay bit-identical to the unbatched protocol.
//
// With any field set, messages queue per node and a frame ships when the
// queue reaches MaxMessages entries (default 16), when its wire size would
// exceed MaxBytes (default: the backend's message-size limit), or — on
// backends with a simulated clock — when an Add or Flush observes that the
// oldest queued message has waited MaxDelay (0 = no deadline). The runtime
// has no timer of its own, so the deadline is checked lazily at those
// points; an idle queue still requires an explicit Flush/FlushAll or a
// blocking Future.Get, which always forces its own frame out.
type BatchPolicy struct {
	MaxMessages int
	MaxBytes    int
	MaxDelay    simtime.Duration
}

// Enabled reports whether the policy arms batching at all.
func (p BatchPolicy) Enabled() bool {
	return p.MaxMessages > 0 || p.MaxBytes > 0 || p.MaxDelay > 0
}

// messages returns the effective count threshold.
func (p BatchPolicy) messages() int {
	if p.MaxMessages > 0 {
		return p.MaxMessages
	}
	return 16
}

// SetBatching installs the batching policy on the initiating runtime.
// Call it before issuing offloads, alongside SetFaultTolerance.
func (rt *Runtime) SetBatching(p BatchPolicy) { rt.batch = p }

// Batching returns the runtime's batching policy.
func (rt *Runtime) Batching() BatchPolicy { return rt.batch }

// Batcher queues offloads per target node and ships each queue as batch
// frames according to the runtime's BatchPolicy. It is not safe for
// concurrent use, matching the rest of the runtime's initiator API.
type Batcher struct {
	rt     *Runtime
	queues []*batchQueue // first-use order, so FlushAll is deterministic
	// enc is where BatchAdd encodes each message: add copies the wire into
	// the frame arena before the next one is encoded.
	enc ham.Encoder
	batcherLink
}

// batcherLink embeds the pool link without an exported field.
type batcherLink = pool.Link[Batcher]

// NewBatcher creates a batcher over rt's backend and policy.
func NewBatcher(rt *Runtime) *Batcher { return &Batcher{rt: rt} }

// TakeBatcher returns one of rt's pooled batchers. Release it once FlushAll
// has shipped its frames: one with entries queued must not be reused.
func TakeBatcher(rt *Runtime) *Batcher {
	b := rt.batchers.Take()
	b.rt = rt
	return b
}

// Release puts a batcher from TakeBatcher back in its runtime's pool.
func (b *Batcher) Release() { b.rt.batchers.Put(b) }

// batchQueue accumulates one node's pending frame. The frame is built as it
// queues: each added message is copied into the frame arena behind its
// length prefix, so a flush only stamps the header and posts the arena —
// no per-flush assembly, and the queue never retains the (scratch-backed)
// wire bytes it was handed. The open frame is a pooled call from its first
// message on: the queued futures already point at it, so a flush posts it
// and rebinds nothing.
type batchQueue struct {
	rt       *Runtime
	node     NodeID
	frame    []byte       // the wire frame under construction: header + entries
	c        *call        // the open frame's sinks and per-entry FT state; nil while empty
	fids     []uint64     // per-message causal trace IDs, 0 without flows
	firstAdd simtime.Time // clock at first queued message (deadline basis)
}

// putEntry copies one wire message into the frame arena.
func (q *batchQueue) putEntry(wire []byte) {
	var l [batPerMsg]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(wire)))
	q.frame = append(q.frame, l[:]...)
	q.frame = append(q.frame, wire...)
}

// queue returns (creating if needed) the queue for node.
func (b *Batcher) queue(node NodeID) *batchQueue {
	for _, q := range b.queues {
		if q.node == node {
			return q
		}
	}
	q := &batchQueue{rt: b.rt, node: node, frame: make([]byte, batHeader)}
	b.queues = append(b.queues, q)
	return q
}

// frameCap returns the largest frame the policy and backend permit, so
// batch-aware length accounting never exceeds what a flag word can publish.
func (b *Batcher) frameCap() int {
	limit := b.rt.backend.MaxMessageLen()
	if mb := b.rt.batch.MaxBytes; mb > 0 && mb < limit {
		limit = mb
	}
	return limit
}

// Pending returns how many messages are queued for node, for tests and
// introspection.
func (b *Batcher) Pending(node NodeID) int {
	for _, q := range b.queues {
		if q.node == node && q.c != nil {
			return len(q.c.sinks)
		}
	}
	return 0
}

// Flush ships node's queued messages now, if any.
func (b *Batcher) Flush(node NodeID) {
	for _, q := range b.queues {
		if q.node == node {
			q.flush()
			return
		}
	}
}

// FlushAll ships every node's queued messages, in first-use node order.
func (b *Batcher) FlushAll() {
	for _, q := range b.queues {
		q.flush()
	}
}

// deadlineDue reports whether q's oldest message has outwaited MaxDelay
// (never, on a wall-clock node: no time passes there).
func (b *Batcher) deadlineDue(q *batchQueue) bool {
	d := b.rt.batch.MaxDelay
	return d > 0 && q.c != nil && b.rt.clock.Now().Sub(q.firstAdd) >= d
}

// BatchAdd queues fn for node on b and returns its future. The frame ships
// when the policy says so, on an explicit Flush/FlushAll, or when one of
// the frame's futures blocks in Get. With batching disabled it is exactly
// Async. (A package-level function because Go methods cannot introduce the
// result type parameter.)
func BatchAdd[R any](b *Batcher, node NodeID, fn Functor[R]) *Future[R] {
	f := new(Future[R])
	Issue(b.rt, b, node, &fn, f)
	return f
}

// add appends one sealed wire message to node's open frame — opening one
// on a pooled call if the queue is empty — and returns the call s now
// rides. The policy may ship the frame before or after the append; a flush
// that fails settles s before add returns.
func (b *Batcher) add(node NodeID, wire []byte, pd *pending, fid uint64, s sink) *call {
	rt, q := b.rt, b.queue(node)
	// Length accounting against the frame cap: ship the current frame first
	// if this message would overflow it. A message too large for any frame
	// still goes out (as a batch of one) and draws the backend's own
	// size error, like an unbatched oversized Call would.
	if q.c != nil && len(q.frame)+batPerMsg+len(wire) > b.frameCap() {
		q.flush()
	}
	if b.deadlineDue(q) {
		q.flush()
	}
	c := q.c
	if c == nil {
		c = rt.takeCall()
		c.frame, c.q, q.c = true, q, c
		q.firstAdd = rt.clock.Now()
	}
	q.putEntry(wire)
	c.pds = append(c.pds, pd)
	c.sinks = append(c.sinks, s)
	q.fids = append(q.fids, fid)
	if rt.tr != nil {
		rt.tr.Tracer().Gauge(int(node), trace.SeriesQueue, rt.clock.Now(), int64(len(c.sinks)))
	}
	if len(c.sinks) >= rt.batch.messages() || len(q.frame) >= b.frameCap() {
		q.flush()
	}
	return c
}

// AsyncBatch offloads fns to node as batch frames under rt's policy and
// returns the futures in submission order — the bulk analogue of Async.
// With batching disabled each functor goes out individually.
func AsyncBatch[R any](rt *Runtime, node NodeID, fns []Functor[R]) []*Future[R] {
	b := TakeBatcher(rt)
	futs := make([]*Future[R], len(fns))
	for i, fn := range fns {
		futs[i] = BatchAdd(b, node, fn)
	}
	b.FlushAll()
	b.Release()
	return futs
}

// flush stamps the header onto q's frame arena and posts the open frame.
func (q *batchQueue) flush() {
	c := q.c
	if c == nil {
		return
	}
	rt, n := q.rt, len(c.sinks)
	frame := q.frame
	binary.LittleEndian.PutUint32(frame[0:4], batMagic)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(n))
	var endBatch func()
	if rt.tr != nil {
		endBatch = rt.tr.Begin(trace.PhaseBatch,
			fmt.Sprintf("batch flush node %d x%d", q.node, n), rt.offloads)
		rt.tr.Count("batch.flushes", 1)
		rt.tr.Count("batch.messages", int64(n))
		tr, now := rt.tr.Tracer(), rt.clock.Now()
		tr.Add(int(q.node), trace.SeriesOccupancy, now, int64(n))
		tr.Gauge(int(q.node), trace.SeriesQueue, now, 0)
		label := fmt.Sprintf("x%d", n)
		for _, fid := range q.fids {
			tr.Event(fid, now, int(rt.ThisNode()), trace.FlowFlush, label)
		}
	}
	if rt.ft.enabled() {
		// The frame retransmits as a unit; the sub-envelopes' sequence
		// numbers make re-execution safe, so the frame reuses the first
		// entry's seq (and first trace ID) for bookkeeping and labels. The
		// arena is reset below, so retransmission needs its own stable copy
		// of the frame.
		c.pd = &pending{
			node: q.node,
			msg:  append([]byte(nil), frame...),
			seq:  c.pds[0].seq,
			fid:  q.fids[0],
		}
	}
	q.c, c.q = nil, nil
	err := c.post(q.node, frame)
	if endBatch != nil {
		endBatch()
	}
	q.frame, q.fids = q.frame[:batHeader], q.fids[:0]
	if err != nil {
		c.failAll(err)
	}
}

// errBatchUnframed is an FT-armed frame answered by something that is not a
// batch frame.
var errBatchUnframed = fmt.Errorf("%w: batch response not framed", ErrPayloadCorrupt)

func errBatchCount(got, want int) error {
	return fmt.Errorf("%w: batch response carries %d entries, want %d", ErrPayloadCorrupt, got, want)
}

// dispatchBatch executes one batch frame on the target: every entry runs
// through the normal Dispatch path (FT validation, dedup, handler), so
// errors stay isolated per entry, and the responses return as one frame.
// A frame with broken framing draws a plain failure response.
//
// The response frame is built incrementally in the runtime's arena: each
// entry's response is copied in before the next entry dispatches, because a
// Dispatch response is only valid until the next Dispatch (it may alias the
// binary's scratch encoder). The arena is stolen for the duration, so a
// nested batch entry builds its frame in a fresh buffer.
func (rt *Runtime) dispatchBatch(subs [][]byte, berr error) []byte {
	if berr != nil {
		rt.tr.Instant(trace.PhaseFault, "corrupt batch frame", rt.executed)
		rt.tr.Count("dispatch.batch.corrupt", 1)
		return ham.EncodeFailure(berr.Error())
	}
	var end func()
	if rt.tr != nil {
		end = rt.tr.Begin(trace.PhaseBatch, fmt.Sprintf("batch x%d", len(subs)), rt.executed+1)
		rt.tr.Count("dispatch.batches", 1)
	}
	frame := rt.batchScratch[:0]
	rt.batchScratch = nil
	var hdr [batHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], batMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(subs)))
	frame = append(frame, hdr[:]...)
	for _, m := range subs {
		resp := rt.Dispatch(m)
		var l [batPerMsg]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(resp)))
		frame = append(frame, l[:]...)
		frame = append(frame, resp...)
	}
	if end != nil {
		end()
	}
	rt.batchScratch = frame
	return frame
}
