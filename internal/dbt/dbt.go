// Package dbt provides the dynamic-binary-translation baseline used by
// Figure 4: running an unmodified program under a DynamoRIO-class
// translator while making no code modifications.
//
// Translation-based virtualization keeps every instruction inside a code
// cache: control transfers exit to a dispatcher (cheap when the target is
// linked, expensive for indirect branches, which need a runtime lookup),
// and first-touch targets pay translation. Protean code avoids all of this
// by letting the original binary run natively and virtualizing only
// selected edges — the contrast measured in Figure 4 (protean <1% mean
// overhead vs ~18% for DynamoRIO).
package dbt

import "repro/internal/machine"

// DynamoRIO returns the cost model calibrated to the published behaviour
// of a mature trace-building translator on SPEC-class programs: per-app
// overheads from a few percent (memory-bound streamers whose stalls hide
// dispatch) to tens of percent (call- and branch-dense programs), with a
// mean near 18%.
func DynamoRIO() *machine.DBTConfig {
	return &machine.DBTConfig{
		// Linked direct transfers inside the code cache are nearly free.
		DirectTransferCycles: 1,
		// Indirect transfers (returns, indirect calls) hash into the
		// target lookup table.
		IndirectTransferCycles: 35,
		// First visit to a target pays trace building.
		TranslateCyclesPerSite: 400,
	}
}
