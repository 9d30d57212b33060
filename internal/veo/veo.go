// Package veo reproduces the NEC VEO (Vector Engine Offloading) API surface
// on top of the simulated VEOS layer. HAM-Offload's SX-Aurora backend is
// written against exactly these primitives, as in the paper (§III):
// process/context management, library loading and symbol lookup,
// asynchronous function calls with basic-type arguments, explicit memory
// allocation and read/write via privileged DMA, plus the VHcall reverse
// direction (§I-B).
package veo

import (
	"fmt"

	"hamoffload/internal/simtime"
	"hamoffload/internal/veos"
)

// Proc is a handle to a VE process created via ProcCreate, the analog of
// struct veo_proc_handle.
type Proc struct {
	card *veos.Card
	vp   *veos.Process
}

// ProcCreate boots a VE process on the card (veo_proc_create).
func ProcCreate(p *simtime.Proc, card *veos.Card) (*Proc, error) {
	vp, err := card.CreateProcess(p)
	if err != nil {
		return nil, err
	}
	return &Proc{card: card, vp: vp}, nil
}

// Destroy tears down the VE process (veo_proc_destroy).
func (h *Proc) Destroy(p *simtime.Proc) error {
	return h.card.DestroyProcess(p)
}

// Process returns the underlying VEOS process (simulation-side accessor).
func (h *Proc) Process() *veos.Process { return h.vp }

// LibHandle identifies a loaded VE library (the uint64_t veo_load_library
// returns).
type LibHandle struct {
	h   *Proc
	lib string
}

// LoadLibrary loads a registered VE library into the process
// (veo_load_library).
func (h *Proc) LoadLibrary(p *simtime.Proc, name string) (LibHandle, error) {
	if err := h.vp.LoadLibrary(p, name); err != nil {
		return LibHandle{}, err
	}
	return LibHandle{h: h, lib: name}, nil
}

// Sym is a resolved VE function symbol (veo_get_sym).
type Sym struct {
	name string
	k    veos.Kernel
}

// Name returns the symbol name.
func (s Sym) Name() string { return s.name }

// GetSym resolves a function symbol in the loaded library (veo_get_sym).
func (l LibHandle) GetSym(p *simtime.Proc, name string) (Sym, error) {
	if l.h == nil {
		return Sym{}, fmt.Errorf("veo: GetSym on nil library handle")
	}
	k, err := l.h.vp.FindSymbol(p, l.lib, name)
	if err != nil {
		return Sym{}, err
	}
	return Sym{name: name, k: k}, nil
}

// Context is a VE execution thread (veo_thr_ctxt).
type Context struct {
	ctx *veos.Context
}

// OpenContext creates a VE worker thread (veo_context_open).
func (h *Proc) OpenContext(p *simtime.Proc) *Context {
	return &Context{ctx: h.vp.OpenContext(p)}
}

// Request is an in-flight asynchronous call (the request ID returned by
// veo_call_async).
type Request struct {
	ctx *Context
	cmd *veos.Command
}

// CallAsync enqueues fn on the context and returns immediately
// (veo_call_async). Arguments are limited to 64-bit basic types, as in VEO.
func (c *Context) CallAsync(p *simtime.Proc, fn Sym, args ...uint64) *Request {
	return &Request{ctx: c, cmd: c.ctx.Submit(p, fn.k, args)}
}

// CallWaitResult blocks until the request completes and returns the
// kernel's 64-bit result (veo_call_wait_result).
func (r *Request) CallWaitResult(p *simtime.Proc) (uint64, error) {
	return r.ctx.ctx.Wait(p, r.cmd)
}

// AllocMem allocates n bytes of VE HBM (veo_alloc_mem).
func (h *Proc) AllocMem(p *simtime.Proc, n int64) (uint64, error) {
	return h.vp.AllocMem(p, n)
}

// WriteMem copies len(src) bytes from the VH buffer at hostAddr into VE
// memory at veAddr via privileged DMA (veo_write_mem). In VEO the source is
// a VH pointer; here it is an address in the simulated host memory.
func (h *Proc) WriteMem(p *simtime.Proc, veAddr, hostAddr uint64, n int64) error {
	return h.card.DMAWrite(p, veAddr, hostAddr, n)
}

// ReadMem copies n bytes from VE memory at veAddr into the VH buffer at
// hostAddr via privileged DMA (veo_read_mem).
func (h *Proc) ReadMem(p *simtime.Proc, hostAddr, veAddr uint64, n int64) error {
	return h.card.DMARead(p, hostAddr, veAddr, n)
}
