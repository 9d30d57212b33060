// Package borrowfix exercises the borrowck analyzer: every escape rule for
// //ham:borrowed buffers (field store, global, channel, map, closure,
// goroutine, element append, unannotated return, reslice aliasing), the
// kills (copy, bytes.Clone, append spread, reassignment), //ham:owned
// ownership transfer, interface annotation propagation, borrowed-result
// origins and interprocedural chains through unannotated helpers.
package borrowfix

import "bytes"

type sink struct {
	buf  []byte
	many [][]byte
}

var global []byte

var sinkCh = make(chan []byte, 1)

var table = map[string][]byte{}

var keep func() []byte

// --- direct escapes ---

//ham:borrowed msg
func fieldStore(s *sink, msg []byte) {
	s.buf = msg // want `borrowed buffer "msg" stored into struct field s\.buf \(chain: borrowfix\.fieldStore\)`
}

//ham:borrowed msg
func globalStore(msg []byte) {
	global = msg // want `borrowed buffer "msg" stored into package-level variable global`
}

//ham:borrowed msg
func channelSend(msg []byte) {
	sinkCh <- msg // want `borrowed buffer "msg" sent on a channel`
}

//ham:borrowed msg
func mapStore(msg []byte) {
	table["k"] = msg // want `borrowed buffer "msg" stored into a map`
}

// A closure carries the taint of what it captures: it escapes the borrow
// only when the closure value itself escapes (stored here into a global).
//
//ham:borrowed msg
func closureCapture(msg []byte) {
	keep = func() []byte { return msg } // want `borrowed buffer "msg" stored into package-level variable keep`
}

// A literal passed as a plain call argument runs within the window: the
// walk/visitor callback idiom is quiet even though it captures the borrow.
func walker(f func(i int)) {
	for i := 0; i < 4; i++ {
		f(i)
	}
}

//ham:borrowed msg
func callbackCapture(msg []byte) {
	n := 0
	walker(func(i int) { n += int(msg[i]) })
	consume(msg[:n%len(msg)])
}

//ham:borrowed msg
func goroutineArg(msg []byte) {
	go consume(msg) // want `borrowed buffer "msg" passed to a goroutine`
}

//ham:borrowed msg
func goroutineCapture(msg []byte) {
	go func() { consume(msg) }() // want `borrowed buffer "msg" captured by a goroutine closure`
}

//ham:borrowed msg
func appendElement(s *sink, msg []byte) {
	s.many = append(s.many, msg) // want `borrowed buffer "msg" appended as an element into another slice`
}

//ham:borrowed msg
func returnBorrowed(msg []byte) []byte {
	return msg // want `borrowed buffer "msg" returned from a function not annotated`
}

// A reslice aliases the same backing array: the fact follows it.
//
//ham:borrowed msg
func resliceAlias(s *sink, msg []byte) {
	tail := msg[4:]
	s.buf = tail // want `borrowed buffer "msg" stored into struct field s\.buf`
}

// Sending an aggregate that carries the borrowed buffer escapes it too.
type req struct{ payload []byte }

var reqCh = make(chan req, 1)

//ham:borrowed msg
func compositeSend(msg []byte) {
	reqCh <- req{payload: msg} // want `borrowed buffer "msg" sent on a channel`
}

// --- kills: copies produce owned memory, reassignment drops the fact ---

//ham:borrowed msg
func copyKills(s *sink, msg []byte) {
	own := make([]byte, len(msg))
	copy(own, msg)
	s.buf = own

	s.buf = bytes.Clone(msg)

	s.buf = append([]byte(nil), msg...)

	reqCh <- req{payload: append([]byte(nil), msg...)}
}

//ham:borrowed msg
func reassignKills(s *sink, msg []byte) {
	b := msg[8:]
	b = make([]byte, 4)
	s.buf = b
}

// Directly invoked and deferred literals discharge inside the window.
//
//ham:borrowed msg
func dischargedLiterals(msg []byte) int {
	defer func() { consume(msg) }()
	return func() int { return len(msg) }()
}

// --- declared hand-offs ---

// take retains data: callers must hand over ownership.
//
//ham:owned data
func take(s *sink, data []byte) {
	s.buf = data
}

//ham:borrowed msg
func ownedTransfer(s *sink, msg []byte) {
	take(s, msg) // want `borrowed buffer "msg" passed to borrowfix\.take, whose parameter takes ownership`
	take(s, bytes.Clone(msg))
}

// view declares that its result is borrowed memory, so returning a reslice
// of its borrowed parameter is legal — and callers inherit the borrow.
//
//ham:borrowed msg return
func view(msg []byte) []byte {
	return msg[4:]
}

//ham:borrowed msg
func useView(s *sink, msg []byte) {
	s.buf = view(msg) // want `borrowed result of borrowfix\.view stored into struct field s\.buf`
}

// --- interprocedural chains through unannotated helpers ---

func stash(b []byte) {
	global = b
}

func relay(b []byte) {
	stash(b)
}

//ham:borrowed msg
func deepEscape(msg []byte) {
	stash(msg) // want `borrowed buffer "msg" stored into package-level variable global at .*borrowfix\.go:\d+:\d+ \(chain: borrowfix\.deepEscape → borrowfix\.stash\)`
}

//ham:borrowed msg
func deepEscape2(msg []byte) {
	relay(msg) // want `chain: borrowfix\.deepEscape2 → borrowfix\.relay → borrowfix\.stash`
}

// idSlice returns its argument: callers' results alias their argument.
func idSlice(b []byte) []byte { return b }

//ham:borrowed msg
func throughHelper(s *sink, msg []byte) {
	s.buf = idSlice(msg) // want `borrowed buffer "msg" stored into struct field s\.buf`
}

// consumeAll reads without retaining: passing a borrow through is quiet.
func consumeAll(b []byte) int {
	n := 0
	for _, c := range b {
		n += int(c)
	}
	return n
}

//ham:borrowed msg
func passThrough(msg []byte) int {
	return consumeAll(msg)
}

// --- interface annotation propagation ---

type transport interface {
	// Send posts msg somewhere. Implementations may read msg for the
	// duration of the call only.
	//
	//ham:borrowed msg
	Send(msg []byte)
}

type badTransport struct{ last []byte }

func (t *badTransport) Send(msg []byte) {
	t.last = msg // want `borrowed buffer "msg" stored into struct field t\.last \(chain: \(\*borrowfix\.badTransport\)\.Send\)`
}

type goodTransport struct{ last []byte }

func (t *goodTransport) Send(msg []byte) {
	t.last = append(t.last[:0], msg...)
}

// Dynamic dispatch through the annotated interface is quiet at the call
// site: every implementation is checked in its own body.
//
//ham:borrowed msg
func forward(t transport, msg []byte) {
	t.Send(msg)
}

// --- borrowed results ---

var scratchArr [64]byte

// scratchResult returns scratch that is valid only until the next call.
//
//ham:borrowed return
func scratchResult() []byte {
	return scratchArr[:0]
}

func stashScratch(s *sink) {
	r := scratchResult()
	s.buf = r // want `borrowed result of borrowfix\.scratchResult stored into struct field s\.buf`
}

func consumeScratch() int {
	return len(scratchResult())
}

func badReturnScratch() []byte {
	return scratchResult() // want `borrowed result of borrowfix\.scratchResult returned from a function not annotated`
}

// An annotated function may pass the borrow outward.
//
//ham:borrowed return
func okReturnScratch() []byte {
	return scratchResult()
}

func consume([]byte) {}

// --- borrowed multi-value results: a proxy forwarding polled responses ---

// poller hands out responses borrowed until its next call, as
// core.Backend's Wait and Poll do.
type poller interface {
	// Poll returns the response once it is there.
	//
	//ham:borrowed return
	Poll(h int) (resp []byte, done bool, err error)
}

// forwarded is a request the proxy completes for a later reader.
type forwarded struct {
	resp []byte
	err  error
}

type proxy struct{ inner poller }

// reply completes rq with resp, which rq keeps.
func (px *proxy) reply(rq *forwarded, resp []byte, err error) {
	rq.resp, rq.err = resp, err
}

// forwardBorrowed keeps the polled response past the next Poll.
func (px *proxy) forwardBorrowed(rq *forwarded, h int) {
	resp, done, err := px.inner.Poll(h)
	if done {
		px.reply(rq, resp, err) // want `borrowed result of \(borrowfix\.poller\)\.Poll stored into struct field rq\.resp at .* \(chain: \(\*borrowfix\.proxy\)\.forwardBorrowed → \(\*borrowfix\.proxy\)\.reply\)`
	}
}

// forwardCopy hands the request its own copy.
func (px *proxy) forwardCopy(rq *forwarded, h int) {
	resp, done, err := px.inner.Poll(h)
	if done {
		px.reply(rq, bytes.Clone(resp), err)
	}
}

// pollErr passes the error on: an error result never aliases the response.
func (px *proxy) pollErr(h int) error {
	_, _, err := px.inner.Poll(h)
	return err
}
