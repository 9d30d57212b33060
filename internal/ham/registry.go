package ham

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
)

// Handler executes one active-message type: it decodes the message payload
// from dec, runs the action against env (the receiving runtime), and encodes
// the result into enc. env is declared as any to keep ham independent of the
// runtime that hosts it; the runtime passes itself.
type Handler func(env any, dec *Decoder, enc *Encoder) error

// Key is a globally valid handler key: the index of the message type's name
// in the lexicographically sorted name table, identical across all binaries
// built from the same program (paper §III-E, Fig. 6).
type Key uint32

// Type is a message type's registration ordinal, which RegisterHandler
// returns: the handle a sender keeps for the type. Each binary resolves it
// to the type's key once, when it is built, so an encode reads the key from
// one slice and needs neither the name nor a map.
type Type uint32

// program is the process-wide registration list — the analog of the message
// types a C++ HAM build instantiates. Both the "host binary" and the "target
// binary" of a simulated heterogeneous application are derived from it.
var program = struct {
	sync.Mutex
	types    map[string]Type
	handlers []Handler // Type -> handler
}{types: make(map[string]Type)}

// RegisterHandler adds the handler for a message type name, or replaces it,
// and returns the type's ordinal; a replacement keeps the ordinal. In the
// C++ original this happens implicitly through template instantiation
// during static initialisation; here it is typically called from package
// initializers or the generic function-registration helpers.
func RegisterHandler(name string, h Handler) Type {
	if name == "" {
		panic("ham: RegisterHandler with empty name")
	}
	if h == nil {
		panic("ham: RegisterHandler with nil handler for " + name)
	}
	program.Lock()
	defer program.Unlock()
	t, ok := program.types[name]
	if !ok {
		t = Type(len(program.handlers))
		program.types[name] = t
		program.handlers = append(program.handlers, nil)
	}
	program.handlers[t] = h
	return t
}

// Binary is one process's instantiation of the program's message handlers —
// the moral equivalent of one compiled binary. Local handler addresses
// differ between binaries (here: synthesised deterministically from the
// architecture name), while the sorted name table yields matching keys, so
// a key produced on one binary dispatches to the right handler on another.
// The receiver reaches the handler by indexing its table with the key: the
// key → address translation of Fig. 6 is that one index.
type Binary struct {
	arch    string
	names   []string  // sorted; index == Key
	addrs   []uint64  // Key -> local handler "code address"
	handler []Handler // Key -> handler
	keys    []Key     // Type -> Key, for the types registered when the binary was built

	// Dispatch scratch: one codec pair reused across sequential Dispatch
	// calls, so steady-state message execution does not allocate. The busy
	// flag hands re-entrant dispatches (a handler dispatching a nested
	// message while parked mid-call) fresh codecs instead. Consequence for
	// callers: the response returned by Dispatch aliases the scratch buffer
	// and is only valid until the next Dispatch on this Binary.
	dispDec Decoder
	dispEnc Encoder
	busy    bool
}

// NewBinary instantiates the current program for an architecture. Binaries
// created after further registrations will disagree on keys, just as
// differently built C++ binaries would, and a binary cannot encode a type
// registered after it was built — create all binaries of one application
// after all registrations, as the runtime setup does.
func NewBinary(arch string) *Binary {
	program.Lock()
	defer program.Unlock()
	// Lexicographic sort of the type names: the same order on every binary
	// without any communication (§III-E).
	names := slices.Sorted(maps.Keys(program.types))
	n := len(names)
	b := &Binary{
		arch:    arch,
		names:   names,
		addrs:   make([]uint64, n),
		handler: make([]Handler, n),
		keys:    make([]Key, n),
	}
	for i, name := range names {
		t := program.types[name]
		// Synthesise a distinct per-binary code address: a hash of the
		// architecture and name. Real binaries get whatever the linker
		// chose; all that matters is that addresses differ across binaries
		// while keys agree.
		b.addrs[i] = fakeAddress(arch, name)
		b.handler[i] = program.handlers[t]
		b.keys[t] = Key(i)
	}
	return b
}

// fakeAddress derives a deterministic 64-bit "code address" from the
// architecture and symbol name.
func fakeAddress(arch, name string) uint64 {
	return fnv(fnv(fnv(fnvOffset, arch), "::"), name) | 1 // never zero
}

// FNV-1a, which fakeAddress and Fingerprint hash with.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv folds s into the FNV-1a hash h.
func fnv(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Fingerprint digests the sorted message-type table. Two binaries agree on
// every handler key if and only if their fingerprints match, so runtimes can
// cheaply verify at startup that host and target were "built" from the same
// program — the failure mode the C++ original leaves to matching ABIs and
// build discipline (§III-E).
func (b *Binary) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	for _, n := range b.names {
		h = fnv(fnv(h, n), "\x1f") // name separator
	}
	return h
}

// KeyOf returns the globally valid key for a message type name, for callers
// that start from a name; an offload starts from its Type.
func (b *Binary) KeyOf(name string) (Key, error) {
	k, ok := slices.BinarySearch(b.names, name)
	if !ok {
		return 0, unknownTypeError(name, b.arch)
	}
	return Key(k), nil
}

// Labels returns prefix+name for every key of the binary, in key order: the
// names instrumentation gives its message types, built once.
func (b *Binary) Labels(prefix string) []string {
	out := make([]string, len(b.names))
	for k, n := range b.names {
		out[k] = prefix + n
	}
	return out
}

// Translation-failure errors only fire on unknown handlers — programming
// errors, not traffic — so their formatting stays off the hot path.

func unknownTypeError(name, arch string) error {
	return fmt.Errorf("ham: message type %q not in binary %s", name, arch)
}

func lateTypeError(t Type, arch string) error {
	return fmt.Errorf("ham: message type #%d was registered after binary %s was built", t, arch)
}

func keyRangeError(k Key, arch string) error {
	return fmt.Errorf("ham: key %d out of range in binary %s", k, arch)
}

// Dispatch executes the message payload msg (key-prefixed wire format) and
// returns the encoded response. It performs the generic-handler sequence of
// §III-E: extract the key, index the local handler table with it, call the
// handler, which re-types the payload bytes back into the typed world.
//
// The returned response aliases the binary's scratch buffer: it is valid
// only until the next Dispatch on this Binary, and callers that need it
// longer must copy it.
//
//ham:borrowed msg return
func (b *Binary) Dispatch(env any, msg []byte) []byte {
	if b.busy {
		return b.dispatchFresh(env, msg)
	}
	b.busy = true
	defer b.endDispatch()
	b.dispDec.Reset(msg)
	b.dispEnc.Reset()
	return b.dispatch(env, &b.dispDec, &b.dispEnc)
}

func (b *Binary) endDispatch() { b.busy = false }

// dispatchFresh is the re-entrant fallback: a handler that dispatches a
// nested message while the scratch pair is in use gets fresh codecs.
//
//ham:borrowed msg return
func (b *Binary) dispatchFresh(env any, msg []byte) []byte {
	return b.dispatch(env, NewDecoder(msg), NewEncoder())
}

func (b *Binary) dispatch(env any, dec *Decoder, enc *Encoder) []byte {
	key := Key(dec.U32())
	if dec.Err() != nil {
		return encodeFailure(enc, fmt.Errorf("ham: truncated message: %v", dec.Err()))
	}
	if int(key) >= len(b.handler) {
		return encodeFailure(enc, keyRangeError(key, b.arch))
	}
	enc.PutU8(statusOK)
	if err := b.handler[key](env, dec, enc); err != nil {
		enc.Reset()
		return encodeFailure(enc, err)
	}
	if err := dec.Err(); err != nil {
		enc.Reset()
		return encodeFailure(enc, err)
	}
	return enc.Bytes()
}

// MessageKey peeks the key of a key-prefixed wire message without
// dispatching it, for instrumentation labels; a truncated message reads as
// a key past every binary's table.
func MessageKey(msg []byte) Key {
	if len(msg) < 4 {
		return math.MaxUint32
	}
	return Key(binary.LittleEndian.Uint32(msg))
}

// Wire format of requests: [u32 key][payload]. Responses: [u8 status]
// followed by either the result payload or an error string.
const (
	statusOK   = 0
	statusFail = 1
)

// EncodeRequest builds the wire form of a message in a fresh encoder: the
// globally valid key followed by the payload writer's output.
func (b *Binary) EncodeRequest(name string, writePayload func(*Encoder)) ([]byte, error) {
	k, err := b.KeyOf(name)
	if err != nil {
		return nil, err
	}
	enc := NewEncoder()
	enc.PutU32(uint32(k))
	if writePayload != nil {
		writePayload(enc)
	}
	return enc.Bytes(), nil
}

// EncodeRequestTo builds the wire form of a message of type t whose payload
// is already encoded — args, the bytes a bound functor carries — into enc,
// which it resets first: the key this binary resolved t to, then args as
// they are. The wire it returns is enc's buffer: valid until enc is next
// written. A type registered after the binary was built has no key in it.
//
//ham:borrowed args
func (b *Binary) EncodeRequestTo(enc *Encoder, t Type, args []byte) ([]byte, error) {
	if int(t) >= len(b.keys) {
		return nil, lateTypeError(t, b.arch)
	}
	enc.Reset()
	enc.PutU32(uint32(b.keys[t]))
	enc.PutRaw(args)
	return enc.Bytes(), nil
}

func encodeFailure(enc *Encoder, err error) []byte {
	enc.PutU8(statusFail)
	enc.PutString(err.Error())
	return enc.Bytes()
}

// EncodeFailure builds a failure response outside a handler — used by
// communication backends that must substitute a protocol-level error (e.g.
// a result too large for the transport) for a handler's response.
func EncodeFailure(msg string) []byte {
	enc := NewEncoder()
	enc.PutU8(statusFail)
	enc.PutString(msg)
	return enc.Bytes()
}

// DecodeResponse splits a response into its payload decoder or the remote
// error it carries.
func DecodeResponse(resp []byte) (*Decoder, error) {
	return DecodeResponseInto(NewDecoder(resp), resp)
}

// DecodeResponseInto is DecodeResponse over a caller-owned decoder, so a
// runtime settling many futures can amortize the decoder allocation with one
// reusable scratch. On success the returned decoder is d itself, re-targeted
// at the response payload — it borrows resp for as long as resp is valid.
//
//ham:borrowed resp
func DecodeResponseInto(d *Decoder, resp []byte) (*Decoder, error) {
	d.Reset(resp)
	switch st := d.U8(); st {
	case statusOK:
		return d, nil
	case statusFail:
		return nil, remoteFailure(d)
	default:
		return nil, unknownStatusError(st)
	}
}

// remoteFailure renders the error string a failure response carries; only
// failed offloads pay for the formatting.
func remoteFailure(d *Decoder) error {
	msg := d.String()
	if err := d.Err(); err != nil {
		return fmt.Errorf("ham: malformed failure response: %v", err)
	}
	return fmt.Errorf("ham: remote execution failed: %s", msg)
}

func unknownStatusError(st uint8) error {
	return fmt.Errorf("ham: unknown response status %d", st)
}
