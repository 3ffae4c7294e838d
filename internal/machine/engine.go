package machine

import "fmt"

// Engine is one execution strategy for an attached process. The machine
// constructs an engine per process (engines may hold per-process decoded
// state) and drives it once per scheduling quantum.
//
// Every engine must be a bit-identical drop-in for the semantics oracle
// (EngineInterp): counters, the PC observed at quantum boundaries, cache
// hierarchy state and telemetry must match instruction for instruction.
// The interp-vs-superblock differential tests enforce this over the whole
// workload catalog.
//
// Engines must never cache an EVT dispatch target across calls: the live
// Edge Virtualization Table is redirected by the protean runtime between
// (and, by the paper's contract, even during) quanta, and a redirect must
// take effect at the very next virtualized call.
type Engine interface {
	// RunUntil advances the process's local cycle clock to the global
	// quantum boundary, executing instructions, naps, forced sleeps,
	// stolen cycles and gated idling exactly as the interpreter does.
	RunUntil(until uint64)
	// CodeInstalled notifies the engine that the process's code image
	// grew from oldLen instructions (InstallVariant appended a variant).
	// Engines with decoded state must invalidate or extend anything
	// derived from the old image — including state at the old tail, whose
	// decoding may change once it gains a successor instruction.
	CodeInstalled(oldLen int)
}

// Engine names accepted by Config.Engine.
const (
	// EngineInterp is the one-instruction-at-a-time reference interpreter,
	// the semantics oracle every other engine is differentially tested
	// against.
	EngineInterp = "interp"
	// EngineSuperblock is the fast engine: it decodes the instruction
	// stream once into dense pre-resolved ops, fuses straight-line runs
	// into superblocks with precomputed instruction/branch/memory counts
	// and aggregate issue cycles, and replays each superblock's cache
	// accesses through the hierarchy in one batched walk. Whole
	// nap/sleep/idle/stolen spans cost it one step of the oracle's own
	// scheduling arithmetic, and returns run the oracle's own code.
	EngineSuperblock = "superblock"
)

// DefaultEngine is used when Config.Engine is empty. The superblock engine
// is the default: the differential gates pin it bit-identical to interp.
const DefaultEngine = EngineSuperblock

// newEngine instantiates the named engine for p (Config.withDefaults has
// already replaced "" by DefaultEngine).
func newEngine(name string, p *Process) (Engine, error) {
	switch name {
	case EngineInterp:
		return &interpEngine{p: p}, nil
	case EngineSuperblock:
		return newSuperblockEngine(p), nil
	}
	return nil, fmt.Errorf("machine: unknown engine %q (have %s, %s)", name, EngineInterp, EngineSuperblock)
}
