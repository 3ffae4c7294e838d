package main

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/ir/dataflow"
	"repro/internal/isa"
	"repro/internal/pcc"
	"repro/internal/progbin"
	"repro/internal/workload"
)

// compilerProbes times pcc and the layers under it over the whole catalog
// (26 apps).
func (p *prober) compilerProbes() error {
	specs := workload.Catalog()
	var mods []*ir.Module
	for _, s := range specs {
		mods = append(mods, s.Module())
	}
	var protean map[string]*progbin.Binary
	var err error
	compileAll := func(withProtean bool) map[string]*progbin.Binary {
		bins := make(map[string]*progbin.Binary, len(specs))
		for i, s := range specs {
			var bin *progbin.Binary
			if bin, err = pcc.Compile(mods[i], pcc.Options{Protean: withProtean}); err != nil {
				err = fmt.Errorf("compile %s: %w", s.Name, err)
				return nil
			}
			bins[s.Name] = bin
		}
		return bins
	}
	p.set("pcc.compile_plain_ms", 1e3*p.time("pcc.Compile", 3, func() func() {
		return func() { compileAll(false) }
	}), "ms")
	p.set("pcc.compile_protean_ms", 1e3*p.time("pcc.Compile", 3, func() func() {
		return func() { protean = compileAll(true) }
	}), "ms")
	if err != nil {
		return err
	}
	words := 0
	for _, b := range protean {
		words += len(b.Program.Code)
	}
	p.set("pcc.text_words", float64(words), "count")

	p.set("dataflow.lint_ms", 1e3*p.time("dataflow.Lint", 3, func() func() {
		return func() {
			for _, m := range mods {
				dataflow.Lint(m)
			}
		}
	}), "ms")
	p.set("isa.lower_ms", 1e3*p.time("isa.Lower", 3, func() func() {
		return func() {
			for _, m := range mods {
				if _, e := isa.Lower(m, isa.Config{}); e != nil {
					err = e
				}
			}
		}
	}), "ms")

	// One variant per function of every protean binary, as the runtime
	// compiler lowers them: against the embedded IR and the live layout.
	type variantJob struct {
		prog *isa.Program
		mod  *ir.Module
	}
	var jobs []variantJob
	variants := 0
	for _, s := range specs {
		bin := protean[s.Name]
		mod, e := bin.DecodeIR()
		if e != nil {
			return e
		}
		jobs = append(jobs, variantJob{bin.Program, mod})
		variants += len(mod.Funcs)
	}
	lower := p.time("isa.LowerVariant", 3, func() func() {
		return func() {
			for _, j := range jobs {
				for _, f := range j.mod.Funcs {
					if _, e := isa.LowerVariant(j.prog, j.mod, f.Name, 1, len(j.prog.Code)); e != nil {
						err = e
					}
				}
			}
		}
	})
	p.set("isa.lower_variant_us", 1e6*lower/float64(variants), "us")

	clone := p.time("ir.Clone", 3, func() func() {
		return func() {
			for _, m := range mods {
				m.Clone()
			}
		}
	})
	p.set("ir.clone_us", 1e6*clone/float64(len(mods)), "us")
	blobs := make([][]byte, len(mods))
	p.set("ir.encode_ms", 1e3*p.time("ir.Encode", 3, func() func() {
		return func() {
			for i, m := range mods {
				if blobs[i], err = ir.EncodeBytes(m); err != nil {
					return
				}
			}
		}
	}), "ms")
	if err != nil {
		return err
	}
	p.set("ir.decode_ms", 1e3*p.time("ir.Decode", 3, func() func() {
		return func() {
			for _, b := range blobs {
				if _, e := ir.DecodeBytes(b); e != nil {
					err = e
				}
			}
		}
	}), "ms")
	return err
}
