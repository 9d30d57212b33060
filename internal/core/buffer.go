package core

import (
	"fmt"
	"math"
	"unsafe"

	"hamoffload/internal/ham"
)

// Elem constrains buffer element types to fixed-size scalars. Simulated
// memory holds them as this build lays them out, on the VH and the VE alike.
type Elem interface {
	~int8 | ~int16 | ~int32 | ~int64 |
		~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// BufferPtr points to target memory of element type T; the node address is
// part of the pointer (Table II's buffer_ptr<T>). The zero value is a null
// pointer.
type BufferPtr[T Elem] struct {
	Node  NodeID
	Addr  uint64
	Count int64 // number of elements
}

// IsNil reports whether the pointer is null.
func (b BufferPtr[T]) IsNil() bool { return b.Addr == 0 }

// Offset returns a pointer advanced by n elements; bounds-checked against
// the allocation's element count, without wrapping for a forged one.
func (b BufferPtr[T]) Offset(n int64) (BufferPtr[T], error) {
	if n < 0 || n > b.Count || b.Count > math.MaxInt64/sizeOf[T]() {
		return BufferPtr[T]{}, fmt.Errorf("core: offset %d outside buffer of %d elements", n, b.Count)
	}
	return BufferPtr[T]{Node: b.Node, Addr: b.Addr + uint64(n*sizeOf[T]()), Count: b.Count - n}, nil
}

// EncodeHAM implements Marshaler, making buffer pointers offloadable as
// function arguments.
func (b *BufferPtr[T]) EncodeHAM(e *ham.Encoder) { encodeBufferPtr(e, *b) }

// DecodeHAM implements Marshaler.
func (b *BufferPtr[T]) DecodeHAM(d *ham.Decoder) { *b = decodeBufferPtr[T](d) }

// hamCodec is the codec an offloaded function uses for a BufferPtr argument
// (codecProvider): the Marshaler wire format, with the pointer passed by
// value, so neither side boxes it.
func (BufferPtr[T]) hamCodec() any {
	return valCodec[BufferPtr[T]]{enc: encodeBufferPtr[T], dec: decodeBufferPtr[T]}
}

func encodeBufferPtr[T Elem](e *ham.Encoder, b BufferPtr[T]) {
	e.PutI64(int64(b.Node))
	e.PutU64(b.Addr)
	e.PutI64(b.Count)
}

func decodeBufferPtr[T Elem](d *ham.Decoder) BufferPtr[T] {
	var b BufferPtr[T]
	b.Node = NodeID(d.I64())
	b.Addr = d.U64()
	b.Count = d.I64()
	return b
}

// sizeOf returns the size of one element of T, in Go and in target memory.
func sizeOf[T Elem]() int64 { return int64(unsafe.Sizeof(*new(T))) }

// Allocate reserves count elements of type T on target memory (Table II's
// allocate). Like in the C++ runtime, allocation is itself an active message
// executed by the target.
func Allocate[T Elem](rt *Runtime, node NodeID, count int64) (BufferPtr[T], error) {
	if count <= 0 {
		return BufferPtr[T]{}, fmt.Errorf("core: allocate of %d elements", count)
	}
	e := argEncoder()
	e.PutI64(count * sizeOf[T]())
	args := bound(e)
	dec, err := rt.callSync(node, msgAlloc, args.bytes())
	if err != nil {
		return BufferPtr[T]{}, err
	}
	addr := dec.U64()
	if err := dec.Err(); err != nil {
		return BufferPtr[T]{}, err
	}
	return BufferPtr[T]{Node: node, Addr: addr, Count: count}, nil
}

// Free releases target memory allocated with Allocate (Table II's free).
func Free[T Elem](rt *Runtime, b BufferPtr[T]) error {
	if b.IsNil() {
		return nil
	}
	e := argEncoder()
	e.PutU64(b.Addr)
	args := bound(e)
	_, err := rt.callSync(b.Node, msgFree, args.bytes())
	return err
}

// elemBytes returns the memory of s as bytes, in place: an element slice and
// its byte image are one storage, so bulk data reaches a backend or a local
// memory without being copied or re-encoded.
func elemBytes[T Elem](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), int64(len(s))*sizeOf[T]())
}

// bytesElems is elemBytes' inverse: the memory of b, a whole number of
// elements long, as elements in place. It refuses memory misaligned for T,
// which only a forged address yields (allocations are 64-byte aligned).
func bytesElems[T Elem](b []byte) ([]T, error) {
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%unsafe.Alignof(*new(T)) != 0 {
		return nil, fmt.Errorf("core: buffer memory is not aligned for %d-byte elements", sizeOf[T]())
	}
	return unsafe.Slice((*T)(p), int64(len(b))/sizeOf[T]()), nil
}

// Put writes src into target memory at dst (Table II's put). It fails if
// src exceeds the buffer.
func Put[T Elem](rt *Runtime, src []T, dst BufferPtr[T]) error {
	if int64(len(src)) > dst.Count {
		return fmt.Errorf("core: put of %d elements into buffer of %d", len(src), dst.Count)
	}
	if len(src) == 0 {
		return nil
	}
	return rt.backend.Put(dst.Node, elemBytes(src), dst.Addr)
}

// Get reads len(dst) elements from target memory at src (Table II's get).
func Get[T Elem](rt *Runtime, src BufferPtr[T], dst []T) error {
	if int64(len(dst)) > src.Count {
		return fmt.Errorf("core: get of %d elements from buffer of %d", len(dst), src.Count)
	}
	if len(dst) == 0 {
		return nil
	}
	return rt.backend.Get(src.Node, src.Addr, elemBytes(dst))
}

// Copy performs a direct copy between buffers on two offload targets,
// orchestrated by the calling node (Table II's copy): the data is staged
// through the orchestrator, as the VEO-era SX-Aurora platform offers no
// VE-to-VE path.
func Copy[T Elem](rt *Runtime, src, dst BufferPtr[T], count int64) error {
	if count > src.Count || count > dst.Count {
		return fmt.Errorf("core: copy of %d elements exceeds buffers (%d src, %d dst)",
			count, src.Count, dst.Count)
	}
	if count <= 0 {
		return nil
	}
	staging := make([]byte, count*sizeOf[T]())
	if err := rt.backend.Get(src.Node, src.Addr, staging); err != nil {
		return err
	}
	return rt.backend.Put(dst.Node, staging, dst.Addr)
}
