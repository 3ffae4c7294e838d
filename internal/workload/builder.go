package workload

import (
	"fmt"

	"repro/internal/ir"
)

// GlobalSpec declares one data region.
type GlobalSpec struct {
	Name string
	Size int64
}

// LoadSpec describes one innermost-loop load site.
type LoadSpec struct {
	Global   string
	Pattern  ir.Pattern
	Stride   int64
	HotBytes int64
}

// HotFunc describes one hot function: nested counted loops whose innermost
// body performs the app's characteristic memory work.
type HotFunc struct {
	Name string
	// Depth is the loop nesting depth (>= 1).
	Depth int
	// InnerTrip is the innermost loop's trip count; OuterTrip is used for
	// every enclosing level (default 4).
	InnerTrip int64
	OuterTrip int64
	// Loads are the innermost-loop load sites, one static load each per
	// iteration. These are the loads PC3D's heuristics retain.
	Loads []LoadSpec
	// Work is ALU padding per innermost iteration.
	Work int
	// Weight is how many times main calls this function per work unit.
	Weight int
	// ShallowLoads emits that many additional static loads into a covered-
	// but-never-executed region of this function (guarded by a branch that
	// is never taken). They model the function's setup and rare-path code:
	// the active-regions heuristic keeps them, the max-loop-depth heuristic
	// prunes them.
	ShallowLoads  int
	ShallowGlobal string
}

// AppConfig parameterizes the program generator.
type AppConfig struct {
	Name    string
	Globals []GlobalSpec
	Hot     []HotFunc
	// ColdFuncs × ColdLoadsPerFunc static loads live in functions that are
	// statically called only from a never-executed region of main. They
	// model the bulk of a real code base: present in the binary, absent
	// from PC samples — pruned by the uncovered-code heuristic.
	ColdFuncs        int
	ColdLoadsPerFunc int
	ColdGlobal       string
	// MainWork is ALU padding in main per work unit.
	MainWork int
}

// Build generates the app's IR module. The entry function performs one work
// unit per invocation (one batch unit or one service request) and returns,
// so the machine's restart/gating modes drive it.
func Build(cfg AppConfig) *ir.Module {
	mb := ir.NewModuleBuilder(cfg.Name)
	for _, g := range cfg.Globals {
		mb.Global(g.Name, g.Size)
	}

	for _, h := range cfg.Hot {
		buildHotFunc(mb, h)
	}

	coldNames := make([]string, cfg.ColdFuncs)
	for i := range coldNames {
		coldNames[i] = fmt.Sprintf("cold%03d", i)
		buildColdFunc(mb, coldNames[i], cfg.ColdLoadsPerFunc, cfg.ColdGlobal)
	}

	main := mb.Function("main")
	if cfg.MainWork > 0 {
		main.Work(cfg.MainWork)
	}
	for _, h := range cfg.Hot {
		w := h.Weight
		if w <= 0 {
			w = 1
		}
		for i := 0; i < w; i++ {
			main.Call(h.Name)
		}
	}
	// Statically reachable, dynamically dead calls keep cold functions in
	// the call graph without ever executing them.
	deadGuard(main, func() {
		for _, name := range coldNames {
			main.Call(name)
		}
	})
	main.Return()
	mb.SetEntry("main")
	return mb.MustBuild()
}

func buildHotFunc(mb *ir.ModuleBuilder, h HotFunc) {
	fb := mb.Function(h.Name)
	if h.ShallowLoads > 0 {
		g := h.ShallowGlobal
		if g == "" && len(h.Loads) > 0 {
			g = h.Loads[0].Global
		}
		deadGuard(fb, func() {
			for i := 0; i < h.ShallowLoads; i++ {
				fb.Load(ir.Access{Global: g, Pattern: ir.Rand})
			}
		})
	}
	outer := h.OuterTrip
	if outer <= 0 {
		outer = 4
	}
	depth := h.Depth
	if depth <= 0 {
		depth = 1
	}
	var nest func(d int)
	nest = func(d int) {
		if d < depth {
			fb.Loop(outer, func() { nest(d + 1) })
			return
		}
		fb.Loop(h.InnerTrip, func() {
			for _, ld := range h.Loads {
				fb.Load(ir.Access{
					Global: ld.Global, Pattern: ld.Pattern,
					Stride: ld.Stride, HotBytes: ld.HotBytes,
				})
			}
			fb.Work(h.Work)
		})
	}
	nest(1)
	fb.Return()
}

func buildColdFunc(mb *ir.ModuleBuilder, name string, loads int, global string) {
	fb := mb.Function(name)
	fb.Loop(4, func() {
		for i := 0; i < loads; i++ {
			fb.Load(ir.Access{Global: global, Pattern: ir.Rand})
		}
	})
	fb.Return()
}

// deadGuard emits body into a block that is statically reachable but never
// executed (guarded by a branch on a constant).
func deadGuard(fb *ir.FunctionBuilder, body func()) {
	zero := fb.Const(0)
	dead := fb.Block("")
	cont := fb.Block("")
	fb.Branch(zero, ir.Ne, ir.Imm(0), dead, cont)
	fb.SetBlock(dead)
	body()
	fb.Jump(cont)
	fb.SetBlock(cont)
}
