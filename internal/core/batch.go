package core

import (
	"encoding/binary"
	"fmt"

	"hamoffload/internal/ham"
	"hamoffload/internal/simtime"
	"hamoffload/internal/telemetry"
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

// sealBatch frames msgs into one batch wire message.
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

// openBatch undoes sealBatch. isBatch is false when msg does not carry the
// magic (a plain HAM message or FT envelope). A magic match with broken
// framing — truncated entry, trailing bytes, absurd count — returns
// isBatch = true and an ErrPayloadCorrupt error.
func openBatch(msg []byte) (msgs [][]byte, isBatch bool, err error) {
	return openBatchInto(nil, msg)
}

// openBatchInto is openBatch appending the entries to dst, so steady-state
// frame splitting can reuse one scratch slice instead of allocating an entry
// list per frame. On a framing error dst is returned (possibly partially
// filled) so the caller keeps its scratch capacity. The returned entries
// alias msg and share its validity window.
//
//ham:borrowed msg
func openBatchInto(dst [][]byte, msg []byte) (msgs [][]byte, isBatch bool, err error) {
	if len(msg) < batHeader || binary.LittleEndian.Uint32(msg[0:4]) != batMagic {
		return nil, false, nil
	}
	count := int(binary.LittleEndian.Uint32(msg[4:8]))
	rest := msg[batHeader:]
	if count <= 0 || count > len(rest) {
		return dst, true, fmt.Errorf("%w: batch frame count %d for %d payload bytes", //lint:allow hotalloc corrupt-frame path: runs at most once per rejected frame
			ErrPayloadCorrupt, count, len(rest))
	}
	msgs = dst
	for i := 0; i < count; i++ {
		if len(rest) < batPerMsg {
			return msgs, true, fmt.Errorf("%w: batch entry %d truncated", ErrPayloadCorrupt, i) //lint:allow hotalloc corrupt-frame path: runs at most once per rejected frame
		}
		l := int(binary.LittleEndian.Uint32(rest[:batPerMsg]))
		rest = rest[batPerMsg:]
		if l < 0 || l > len(rest) {
			return msgs, true, fmt.Errorf("%w: batch entry %d claims %d of %d bytes", //lint:allow hotalloc corrupt-frame path: runs at most once per rejected frame
				ErrPayloadCorrupt, i, l, len(rest))
		}
		//lint:allow borrowck the entries alias the inbound frame by design; Dispatch consumes them before the serve loop reuses it
		msgs = append(msgs, rest[:l]) //lint:allow hotalloc amortized growth of the caller's entry scratch
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return msgs, true, fmt.Errorf("%w: %d trailing bytes after batch", ErrPayloadCorrupt, len(rest)) //lint:allow hotalloc corrupt-frame path: runs at most once per rejected frame
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

// settler is the type-erased face of *Future[T] a batch frame settles
// results through.
type settler interface {
	settle(resp []byte)
	fail(err error)
}

// Batcher queues offloads per target node and ships each queue as batch
// frames according to the runtime's BatchPolicy. It is not safe for
// concurrent use, matching the rest of the runtime's initiator API.
type Batcher struct {
	rt     *Runtime
	queues []*batchQueue // first-use order, so FlushAll is deterministic
}

// NewBatcher creates a batcher over rt's backend and policy.
func NewBatcher(rt *Runtime) *Batcher { return &Batcher{rt: rt} }

// batchQueue accumulates one node's pending frame. The frame is built as it
// queues: each added message is copied into the frame arena behind its
// length prefix, so a flush only stamps the header and posts the arena —
// no per-flush assembly, and the queue never retains the (scratch-backed)
// wire bytes it was handed.
type batchQueue struct {
	node     NodeID
	frame    []byte         // the wire frame under construction: header + entries
	count    int            // messages queued in frame
	pds      []*pending     // per-message FT state, nil entries with FT off
	sinks    []settler      // futures awaiting the frame, parallel to entries
	tks      []*batchTicket // tickets to rebind at flush, parallel to entries
	fids     []uint64       // per-message causal trace IDs, 0 without flows
	firstAdd simtime.Time   // clock at first queued message (deadline basis)
}

// putEntry copies one wire message into the frame arena.
func (q *batchQueue) putEntry(wire []byte) {
	var l [batPerMsg]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(wire)))
	q.frame = append(q.frame, l[:]...) //lint:allow hotalloc amortized growth of the frame arena (covers both appends)
	q.frame = append(q.frame, wire...)
	q.count++
}

// reset clears the queue for the next frame, keeping the arena and the
// ticket/trace-ID capacity. pds and sinks are NOT touched here: flushQueue
// hands their backing arrays to the batchCall and replaces them.
func (q *batchQueue) reset() {
	q.frame = q.frame[:batHeader]
	q.count = 0
	q.tks = q.tks[:0]
	q.fids = q.fids[:0]
}

// queue returns (creating if needed) the queue for node.
func (b *Batcher) queue(node NodeID) *batchQueue {
	for _, q := range b.queues {
		if q.node == node {
			return q
		}
	}
	q := &batchQueue{node: node, frame: make([]byte, batHeader)} //lint:allow hotalloc one queue per target node, created on first use and reused forever
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
		if q.node == node {
			return q.count
		}
	}
	return 0
}

// Flush ships node's queued messages now, if any.
func (b *Batcher) Flush(node NodeID) {
	for _, q := range b.queues {
		if q.node == node {
			b.flushQueue(q)
			return
		}
	}
}

// FlushAll ships every node's queued messages, in first-use node order.
func (b *Batcher) FlushAll() {
	for _, q := range b.queues {
		b.flushQueue(q)
	}
}

// deadlineDue reports whether q's oldest message has outwaited MaxDelay
// (never, on a wall-clock node: no time passes there).
func (b *Batcher) deadlineDue(q *batchQueue) bool {
	d := b.rt.batch.MaxDelay
	return d > 0 && q.count > 0 && b.rt.clock.Now().Sub(q.firstAdd) >= d
}

// BatchAdd queues fn for node on b and returns its future. The frame ships
// when the policy says so, on an explicit Flush/FlushAll, or when one of
// the frame's futures blocks in Get. With batching disabled it is exactly
// Async. (A package-level function because Go methods cannot introduce the
// result type parameter.)
//
//hot:path
func BatchAdd[R any](b *Batcher, node NodeID, fn Functor[R]) *Future[R] {
	rt := b.rt
	if !rt.batch.Enabled() {
		return Async(rt, node, fn)
	}
	endOff := rt.beginOffload(node, fn.name)
	if node == rt.ThisNode() {
		return failedFuture[R](rt, endOff, errOffloadSelf(node))
	}
	if int(node) < 0 || int(node) >= rt.NumNodes() {
		return failedFuture[R](rt, endOff, errNoNode(node, rt.NumNodes()))
	}
	var endEnc func()
	if rt.tr != nil {
		endEnc = rt.tr.Begin(trace.PhaseEncode, "encode "+fn.name, rt.offloads+1)
	}
	msg, err := rt.bin.EncodeRequest(fn.name, fn.payload)
	if endEnc != nil {
		endEnc()
	}
	if err != nil {
		return failedFuture[R](rt, endOff, err)
	}
	rt.offloads++
	wire, pd := rt.seal(node, msg)
	wire, fid := rt.flowSeal(wire, pd)

	q := b.queue(node)
	// Length accounting against the frame cap: ship the current frame first
	// if this message would overflow it. A message too large for any frame
	// still goes out (as a batch of one) and draws the backend's own
	// size error, like an unbatched oversized Call would.
	if q.count > 0 && len(q.frame)+batPerMsg+len(wire) > b.frameCap() {
		b.flushQueue(q)
	}
	if b.deadlineDue(q) {
		b.flushQueue(q)
	}
	f := &Future[R]{rt: rt, decode: fn.decode, onDone: endOff} //lint:allow hotalloc one future per offload is the API contract
	f.btv = batchTicket{b: b, q: q}
	f.bt = &f.btv
	if q.count == 0 {
		q.firstAdd = rt.clock.Now()
	}
	q.putEntry(wire)
	q.pds = append(q.pds, pd)    //lint:allow hotalloc amortized: backing array cycles through the batchCall pool
	q.sinks = append(q.sinks, f) //lint:allow hotalloc amortized: backing array cycles through the batchCall pool
	q.tks = append(q.tks, f.bt)  //lint:allow hotalloc amortized growth of the queue's ticket list
	q.fids = append(q.fids, fid)
	if rt.tel != nil {
		rt.tel.Gauge(int(node), telemetry.SeriesQueue, rt.clock.Now(), int64(q.count))
	}
	if q.count >= rt.batch.messages() || len(q.frame) >= b.frameCap() {
		b.flushQueue(q)
	}
	return f
}

// AsyncBatch offloads fns to node as batch frames under rt's policy and
// returns the futures in submission order — the bulk analogue of Async.
// With batching disabled each functor goes out individually.
func AsyncBatch[R any](rt *Runtime, node NodeID, fns []Functor[R]) []*Future[R] {
	b := NewBatcher(rt)
	futs := make([]*Future[R], len(fns))
	for i, fn := range fns {
		futs[i] = BatchAdd(b, node, fn)
	}
	b.FlushAll()
	return futs
}

// flushQueue stamps the header onto q's frame arena, posts it, and rebinds
// the queued futures to the in-flight batchCall.
//
//hot:path
func (b *Batcher) flushQueue(q *batchQueue) {
	if q.count == 0 {
		return
	}
	rt := b.rt
	frame := q.frame
	binary.LittleEndian.PutUint32(frame[0:4], batMagic)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(q.count))
	var endBatch func()
	if rt.tr != nil {
		endBatch = rt.tr.Begin(trace.PhaseBatch,
			fmt.Sprintf("batch flush node %d x%d", q.node, q.count), rt.offloads)
		rt.tr.Count("batch.flushes", 1)
		rt.tr.Count("batch.messages", int64(q.count))
	}
	if rt.tel != nil {
		now := rt.clock.Now()
		rt.tel.Add(int(q.node), telemetry.SeriesOccupancy, now, int64(q.count))
		rt.tel.Gauge(int(q.node), telemetry.SeriesQueue, now, 0)
		label := fmt.Sprintf("x%d", q.count)
		for _, fid := range q.fids {
			rt.tel.Event(fid, now, int(rt.ThisNode()), telemetry.FlowFlush, label)
		}
	}
	var fpd *pending
	if rt.ft.enabled() {
		// The frame retransmits as a unit; the sub-envelopes' sequence
		// numbers make re-execution safe, so the frame reuses the first
		// entry's seq (and first trace ID) for bookkeeping and labels. The
		// arena is reset below, so retransmission needs its own stable copy
		// of the frame.
		fpd = &pending{ //lint:allow hotalloc retransmission state must outlive the flush
			node: q.node,
			msg:  append([]byte(nil), frame...), //lint:allow hotalloc retransmission needs a stable copy of the scratch-backed frame
			seq:  q.pds[0].seq,
			fid:  q.fids[0],
		}
	}
	// The batchCall takes ownership of the pds and sinks arrays; the queue
	// continues on the recycled call's arrays (nil on the first flush), so
	// post-flush appends can never clobber the in-flight call's view.
	bc := rt.takeBatchCall()
	bc.fpd = fpd
	bc.pds, q.pds = q.pds, bc.pds[:0]
	bc.sinks, q.sinks = q.sinks, bc.sinks[:0]
	rt.noteSent(q.node, len(frame))
	h, err := rt.backend.Call(q.node, frame)
	if err != nil && rt.canRetry(fpd, err) {
		h, err = rt.resubmit(fpd)
	}
	if endBatch != nil {
		endBatch()
	}
	for _, tk := range q.tks {
		tk.bc, tk.q = bc, nil
	}
	q.reset()
	if err != nil {
		bc.failAll(err)
		return
	}
	bc.h = h
}

// batchTicket links one future to its frame: before the flush it points at
// the queue (so a blocking Get can force the frame out), afterwards at the
// in-flight batchCall.
type batchTicket struct {
	b  *Batcher
	q  *batchQueue
	bc *batchCall
}

func (tk *batchTicket) ensureFlushed() {
	if tk.bc == nil {
		tk.b.flushQueue(tk.q)
	}
}

// batchCall is one in-flight batch frame: the shared resolution state of
// all its futures. The whole frame retries as a unit under the runtime's
// fault-tolerance policy; the target answers retransmitted entries from
// its dedup window, so handlers still run at most once.
//
// Completed calls recycle through the runtime's free list (takeBatchCall):
// once deliver or failAll has settled every sink, the futures short-circuit
// on their own done flag and never touch the call again, so its arrays are
// free to back the next frame. The list grows to the number of frames ever
// in flight at once — the gateway keeps up to Window frames open per VE, a
// single slot missed almost every time there — and no further.
type batchCall struct {
	rt    *Runtime
	h     Handle
	fpd   *pending   // frame retransmission state, nil with FT off
	pds   []*pending // per-entry envelope state, nil entries with FT off
	sinks []settler
	done  bool
	next  *batchCall // free-list link while parked

	// deliver scratch, reused across retries and pool cycles.
	subs [][]byte
}

// takeBatchCall returns a batchCall for the next flush, recycling a
// completed one when available.
func (rt *Runtime) takeBatchCall() *batchCall {
	bc := rt.freeBC
	if bc == nil {
		return &batchCall{rt: rt} //lint:allow hotalloc pool miss: one call object per concurrently in-flight frame, then recycled
	}
	rt.freeBC, bc.next = bc.next, nil
	bc.done = false
	return bc
}

// recycle parks the completed call for reuse, dropping what it still
// references: the settled futures, their retransmission state and the
// response bytes the scratch slices alias. Callers must have settled every
// sink first.
func (bc *batchCall) recycle() {
	bc.h, bc.fpd = nil, nil
	clear(bc.pds)
	clear(bc.sinks)
	clear(bc.subs)
	bc.next, bc.rt.freeBC = bc.rt.freeBC, bc
}

// resolve blocks until the frame completes and settles every future.
func (bc *batchCall) resolve() {
	if bc.done {
		return
	}
	for {
		resp, err := bc.rt.backend.Wait(bc.h)
		if err == nil {
			err = bc.deliver(resp)
			if err == nil {
				return
			}
		}
		if !bc.rt.canRetry(bc.fpd, err) {
			bc.rt.noteTimeout(err)
			bc.failAll(err)
			return
		}
		h, rerr := bc.rt.resubmit(bc.fpd)
		if rerr != nil {
			bc.failAll(rerr)
			return
		}
		bc.h = h
	}
}

// poll is the non-blocking variant of resolve, for Future.Test.
func (bc *batchCall) poll() {
	if bc.done {
		return
	}
	resp, done, err := bc.rt.backend.Poll(bc.h)
	if err == nil && !done {
		return
	}
	if err == nil {
		if err = bc.deliver(resp); err == nil {
			return
		}
	}
	if bc.rt.canRetry(bc.fpd, err) {
		h, rerr := bc.rt.resubmit(bc.fpd)
		if rerr == nil {
			bc.h = h
			return
		}
		err = rerr
	}
	bc.rt.noteTimeout(err)
	bc.failAll(err)
}

// deliver splits the batch response and settles the futures. A non-nil
// return means the frame must be treated as failed (and possibly retried):
// the response was not batch-framed under FT, the entry count is off, or
// an entry failed envelope validation.
func (bc *batchCall) deliver(resp []byte) error {
	subs, isBatch, err := openBatchInto(bc.subs[:0], resp)
	bc.subs = subs
	if !isBatch {
		if bc.fpd != nil {
			return errBatchUnframed
		}
		// Without FT nothing retries: surface whatever the target said —
		// typically its failure response to a frame it could not parse —
		// through every future.
		for _, s := range bc.sinks {
			s.settle(resp)
		}
		bc.done = true
		bc.recycle()
		return nil
	}
	if err != nil {
		return err
	}
	if len(subs) != len(bc.sinks) {
		return errBatchCount(len(subs), len(bc.sinks))
	}
	// Validate every entry before settling any, so a single corrupt entry
	// retries the frame instead of splitting it into settled and lost
	// halves. The dedup window answers the already-executed entries. Each
	// entry is replaced by its payload in place: subs is scratch, and a retry
	// splits the next response afresh.
	for i, sub := range subs {
		p, err := bc.rt.openResponse(bc.pds[i], sub)
		if err != nil {
			return err
		}
		subs[i] = p
	}
	for i, s := range bc.sinks {
		s.settle(subs[i])
	}
	bc.done = true
	bc.recycle()
	return nil
}

// errBatchUnframed is an FT-armed frame answered by something that is not a
// batch frame.
var errBatchUnframed = fmt.Errorf("%w: batch response not framed", ErrPayloadCorrupt)

//hot:cold
func errBatchCount(got, want int) error {
	return fmt.Errorf("%w: batch response carries %d entries, want %d", ErrPayloadCorrupt, got, want)
}

// failAll fails every unsettled future with err.
func (bc *batchCall) failAll(err error) {
	for _, s := range bc.sinks {
		s.fail(err)
	}
	bc.done = true
	bc.recycle()
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
	frame = append(frame, hdr[:]...) //lint:allow hotalloc amortized growth of the response-frame arena
	for _, m := range subs {
		resp := rt.Dispatch(m)
		var l [batPerMsg]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(resp)))
		frame = append(frame, l[:]...) //lint:allow hotalloc amortized growth of the response-frame arena (covers both appends)
		frame = append(frame, resp...)
	}
	if end != nil {
		end()
	}
	rt.batchScratch = frame
	return frame
}
