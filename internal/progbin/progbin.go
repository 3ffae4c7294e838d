// Package progbin defines the protean binary format: the container produced
// by pcc and consumed by the machine loader and the protean runtime.
//
// A protean binary is an ordinary executable program image plus the two
// metadata structures of Section III-A-2: the Edge Virtualization Table
// image and the serialized, compressed IR of the program, both "placed in
// the data region". A binary compiled without the protean pass carries
// neither and runs identically — the paper's "can be run without the
// runtime system" property.
//
// The embedded IR has two readers. IR decodes it once per binary and
// shares that module read-only, as a runtime attaching to the binary does;
// DecodeIR returns a fresh module for a caller that transforms it.
package progbin

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/isa"
)

// magic identifies the serialized binary format.
const magic = "PCBIN1\n"

// ErrNotProtean is returned when runtime features require metadata that a
// plain binary does not carry.
var ErrNotProtean = errors.New("progbin: binary carries no protean metadata")

// Binary is a loadable program image.
type Binary struct {
	// Program is the lowered text section plus static metadata.
	Program *isa.Program
	// Protean marks binaries produced by the protean compiler pass.
	Protean bool
	// IRBlob is the compressed serialized IR (empty for plain binaries).
	IRBlob []byte

	// irOnce guards the shared module IR decodes; WriteTo skips it.
	irOnce sync.Once
	irMod  *ir.Module
	irErr  error
}

// HasIR reports whether the binary embeds its IR.
func (b *Binary) HasIR() bool { return len(b.IRBlob) > 0 }

// DecodeIR decompresses and deserializes the embedded IR. Each call returns
// a fresh module, so callers may transform it freely.
func (b *Binary) DecodeIR() (*ir.Module, error) {
	if !b.HasIR() {
		return nil, ErrNotProtean
	}
	return ir.DecodeBytes(b.IRBlob)
}

// IR returns the embedded IR, decoded on the first call and shared by every
// later one, so the binary is decoded once however many runtimes attach to
// it. The module is read-only: a caller that transforms it clones it first
// or takes DecodeIR's fresh copy.
func (b *Binary) IR() (*ir.Module, error) {
	b.irOnce.Do(func() { b.irMod, b.irErr = b.DecodeIR() })
	return b.irMod, b.irErr
}

// WriteTo serializes the binary.
func (b *Binary) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		return 0, fmt.Errorf("progbin: encode %q: %w", b.Program.Name, err)
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// EncodeBytes serializes the binary to a byte slice.
func (b *Binary) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Read deserializes a binary written by WriteTo.
func Read(r io.Reader) (*Binary, error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("progbin: read header: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("progbin: bad magic %q", head)
	}
	var b Binary
	if err := gob.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("progbin: decode: %w", err)
	}
	if b.Program == nil {
		return nil, errors.New("progbin: binary has no program")
	}
	return &b, nil
}

// DecodeBytes deserializes EncodeBytes output.
func DecodeBytes(data []byte) (*Binary, error) {
	return Read(bytes.NewReader(data))
}

// LiveEVT is the mutable, shared Edge Virtualization Table of one running
// program. The interpreter reads targets on every virtualized call; the
// runtime redirects execution by overwriting a slot. Slot updates are single
// atomic writes — "requires no synchronization between the host program and
// the runtime" (Section III-B-2) — so the runtime may run concurrently with
// the machine.
type LiveEVT struct {
	names   []string
	targets []atomic.Int64
}

// NewLiveEVT instantiates the table from the binary's EVT image.
func NewLiveEVT(image []isa.EVTEntry) *LiveEVT {
	e := &LiveEVT{
		names:   make([]string, len(image)),
		targets: make([]atomic.Int64, len(image)),
	}
	for i, ent := range image {
		e.names[i] = ent.Callee
		e.targets[i].Store(int64(ent.Target))
	}
	return e
}

// Len returns the number of slots.
func (e *LiveEVT) Len() int { return len(e.names) }

// Callee returns the function name slot dispatches for.
func (e *LiveEVT) Callee(slot int) string { return e.names[slot] }

// Target returns the current dispatch PC of slot.
func (e *LiveEVT) Target(slot int) int { return int(e.targets[slot].Load()) }

// SetTarget atomically redirects slot to pc.
func (e *LiveEVT) SetTarget(slot, pc int) { e.targets[slot].Store(int64(pc)) }

// SlotFor returns the slot index dispatching for callee, or -1.
func (e *LiveEVT) SlotFor(callee string) int {
	for i, n := range e.names {
		if n == callee {
			return i
		}
	}
	return -1
}
