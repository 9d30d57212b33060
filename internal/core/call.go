package core

import (
	"errors"

	"hamoffload/internal/ham"
	"hamoffload/internal/pool"
)

// settler is the type-erased face of *Future[T] a call settles results
// through. settle decodes resp with dec, the decoder of the sink entry the
// settler rides in.
type settler interface {
	settle(resp []byte, dec any)
	fail(err error)
}

// sink is one entry of a call: the settler and its result decoder, a
// func(*ham.Decoder) (T, error) for a *Future[T] (nil for a rawSink). The
// decoder depends only on the result type, so the call, not each future,
// carries it, for as long as the future is unsettled.
type sink struct {
	s   settler
	dec any
}

// rawSink is the settler a synchronous offload resolves into: Sync and the
// runtime's own control messages need the response payload, not a future.
// settle opens the response in place, so dec reads the payload where the
// backend delivered it — borrowed until the runtime next calls the backend
// (Backend.Wait) — and the caller decodes it as soon as resolve returns.
type rawSink struct {
	dec  ham.Decoder
	err  error
	done bool
	busy bool // a synchronous offload is resolving into this sink
}

func (s *rawSink) settle(resp []byte, _ any) {
	_, s.err = ham.DecodeResponseInto(&s.dec, resp)
	s.done = true
}

func (s *rawSink) fail(err error) { s.err, s.done = err, true }

// call is the in-flight state of one wire message, and the one thing that
// waits, polls, retries and settles. A plain offload is a call with one
// sink; a batch frame is a call with one sink per entry, and the frame bit
// only decides how the response is split. The message retries as a unit
// under the runtime's fault-tolerance policy; the target answers
// retransmitted entries from its dedup window, so handlers still run at
// most once.
//
// Completed calls recycle through the runtime's pool (Runtime.calls): once
// deliver or failAll has settled every sink, the futures point at
// settledCall and never touch the call again, so its arrays are free to
// back the next message. A bare message is encoded into the call's own
// encoder, which holds the wire for as long as the call is in flight.
type call struct {
	rt    *Runtime
	h     Handle
	pd    *pending    // the wire message's retransmission state, nil with FT off
	frame bool        // the response is a batch frame, one entry per sink
	q     *batchQueue // set while the frame is still filling: resolve and poll force it out
	sinks []sink
	pds   []*pending // frame only: per-entry envelope state, nil entries with FT off
	subs  [][]byte   // frame only: deliver's split scratch, reused across retries and pool cycles
	resp  []byte     // frame only: deliver's copy of the response the entries alias
	enc   ham.Encoder
	done  bool // every sink settled; the call is parked
	pool.Link[call]
}

// takeCall returns a call for the next wire message.
func (rt *Runtime) takeCall() *call {
	c := rt.calls.Take()
	c.rt, c.done = rt, false
	return c
}

// recycle parks the completed call for reuse, dropping what it still
// references: the settled futures and their decoders, their retransmission
// state and the response bytes the scratch slices alias. Callers must have
// settled every sink first.
func (c *call) recycle() {
	c.h, c.pd, c.q, c.frame = nil, nil, nil, false
	clear(c.pds)
	clear(c.sinks)
	clear(c.subs[:cap(c.subs)]) // a retry may have split a longer response before
	c.pds, c.sinks = c.pds[:0], c.sinks[:0]
	c.done = true
	c.rt.calls.Put(c)
}

// post hands the wire message, whose causal trace IDs are fids, to the
// backend, retrying a transient failure of the post itself. On error the
// caller fails the call.
func (c *call) post(node NodeID, wire []byte, fids []uint64) error {
	rt := c.rt
	rt.noteSent(node, len(wire), fids)
	h, err := rt.backend.Call(node, wire)
	if err != nil && rt.canRetry(c.pd, err) {
		h, err = rt.resubmit(c.pd)
	}
	c.h = h
	return err
}

// flush forces out a frame that is still filling: it cannot complete on its
// own, so a future that blocks or polls ships it first.
func (c *call) flush() {
	if c.q != nil {
		c.q.flush()
	}
}

// resolve blocks until the message completes and settles every sink,
// applying the retry policy: transient failures (from the backend or from
// response validation) are re-posted until the budget runs out. Enveloped
// offloads on a hedging-armed runtime wait through the race instead; batch
// frames and node-pinned control messages never hedge.
func (c *call) resolve() {
	c.flush()
	rt := c.rt
	hedged := rt.hedge.enabled() && !c.frame && c.pd != nil && !c.pd.pinned
	if hedged {
		rt.reapStrays()
	}
	for !c.done {
		var err error
		if hedged {
			err = c.race()
		} else if resp, werr := rt.backend.Wait(c.h); werr != nil {
			err = werr
		} else {
			err = c.deliver(resp)
		}
		if err != nil {
			c.retry(err)
		}
	}
}

// poll is the non-blocking variant of resolve, for Future.Test: a transient
// failure observed here re-posts the message and leaves it in flight. It
// never hedges.
func (c *call) poll() {
	c.flush()
	if c.done {
		return
	}
	resp, done, err := c.rt.backend.Poll(c.h)
	if err == nil && !done {
		return
	}
	if err == nil {
		err = c.deliver(resp)
	}
	if err != nil {
		c.retry(err)
	}
}

// retry re-posts the message after err, or fails every sink when err is
// permanent or the budget is spent. resubmit counts its own terminal
// timeout.
func (c *call) retry(err error) {
	rt := c.rt
	if !rt.canRetry(c.pd, err) {
		rt.noteTimeout(err)
		c.failAll(err)
		return
	}
	h, err := rt.resubmit(c.pd)
	if err != nil {
		c.failAll(err)
		return
	}
	c.h = h
	c.pd.sentAt = rt.clock.Now() // the re-post is the new primary: hedge delays measure from here
}

// deliver validates the response and settles the sinks. A non-nil return
// means the message must be treated as failed (and possibly retried): the
// envelope did not validate, or — for a frame — the response was not
// batch-framed under FT, the entry count is off, or an entry failed
// envelope validation.
func (c *call) deliver(resp []byte) error {
	if !c.frame {
		p, err := c.rt.openResponse(c.pd, resp)
		if err != nil && c.pd.last && !errors.Is(err, errNack) {
			// The target ran its terminate, and with it its serve loop
			// ended: a retransmission would wait for an answer forever.
			c.failAll(errTerminated)
			return nil
		}
		if err != nil {
			return err
		}
		c.sinks[0].s.settle(p, c.sinks[0].dec)
		c.recycle()
		return nil
	}
	// Settle hooks run between the entries and may call the backend, which
	// ends the response's borrow: the entries alias the call's own copy.
	c.resp = append(c.resp[:0], resp...)
	resp = c.resp
	subs, isBatch, err := openBatchInto(c.subs[:0], resp)
	if !isBatch {
		if c.pd != nil {
			return errBatchUnframed
		}
		// Without FT nothing retries: surface whatever the target said —
		// typically its failure response to a frame it could not parse —
		// through every future.
		for _, s := range c.sinks {
			s.s.settle(resp, s.dec)
		}
		c.recycle()
		return nil
	}
	c.subs = subs
	if err != nil {
		return err
	}
	if len(subs) != len(c.sinks) {
		return errBatchCount(len(subs), len(c.sinks))
	}
	// Validate every entry before settling any, so a single corrupt entry
	// retries the frame instead of splitting it into settled and lost
	// halves. The dedup window answers the already-executed entries. Each
	// entry is replaced by its payload in place: subs is scratch, and a retry
	// splits the next response afresh.
	for i, sub := range subs {
		p, err := c.rt.openResponse(c.pds[i], sub)
		if err != nil {
			return err
		}
		subs[i] = p
	}
	for i, s := range c.sinks {
		s.s.settle(subs[i], s.dec)
	}
	c.recycle()
	return nil
}

// failAll fails every sink with err.
func (c *call) failAll(err error) {
	for _, s := range c.sinks {
		s.s.fail(err)
	}
	c.recycle()
}
