// Command pcvet runs the semantic linter over protean-code programs: the
// dataflow-based IR diagnostics (internal/ir/dataflow.Lint) plus the
// ISA-level checks on lowered code (internal/isa.LintProgram).
//
// It vets three kinds of target:
//
//	pcvet -app libquantum          # a catalog app (IR + lowered code)
//	pcvet -all                     # every catalog app
//	pcvet -input prog.ir           # a textual IR module
//	pcvet -bin prog.pcb            # a compiled binary (code + embedded IR)
//
// Findings print one per line in the form
//
//	<severity>[<rule>] <location>: <message>
//
// followed by a per-target count summary. With -format json each finding
// (and the per-target summary) is instead one JSON object per line, for
// machine consumers. The exit status is 1 when any target has an
// error-severity finding (or fails to parse/compile at all), 0 otherwise,
// 2 for usage errors — so CI can gate on it directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/ir"
	"repro/internal/ir/dataflow"
	"repro/internal/ir/irtext"
	"repro/internal/isa"
	"repro/internal/pcc"
	"repro/internal/progbin"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and argv, so tests can drive the
// whole CLI in-process. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pcvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app    = fs.String("app", "", "vet a workload catalog app by name")
		all    = fs.Bool("all", false, "vet every catalog app")
		input  = fs.String("input", "", "vet a textual IR module file")
		bin    = fs.String("bin", "", "vet a compiled .pcb binary")
		report = fs.String("report", "", "also append findings to this file (for CI artifacts)")
		max    = fs.Int("max", 40, "findings printed per target before truncating")
		list   = fs.Bool("list", false, "list catalog app names and exit")
		format = fs.String("format", "text", "output format: text|json (one JSON object per line)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pcvet [-app name | -all | -input file.ir | -bin file.pcb]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		var names []string
		for _, s := range workload.Catalog() {
			names = append(names, s.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	targets := 0
	for _, set := range []bool{*app != "", *all, *input != "", *bin != ""} {
		if set {
			targets++
		}
	}
	if targets != 1 || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "pcvet: unknown -format %q (text|json)\n", *format)
		return 2
	}

	out := stdout
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(stderr, "pcvet: %v\n", err)
			return 1
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}

	v := &vetter{out: out, max: *max, jsonOut: *format == "json"}
	switch {
	case *all:
		var names []string
		for _, s := range workload.Catalog() {
			names = append(names, s.Name)
		}
		sort.Strings(names)
		for _, name := range names {
			spec, _ := workload.ByName(name)
			v.vetModule(name, spec.Module())
		}
	case *app != "":
		spec, ok := workload.ByName(*app)
		if !ok {
			fmt.Fprintf(stderr, "pcvet: unknown app %q (try -list)\n", *app)
			return 1
		}
		v.vetModule(*app, spec.Module())
	case *input != "":
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintf(stderr, "pcvet: %v\n", err)
			return 1
		}
		m, err := irtext.Parse(f)
		f.Close()
		if err != nil {
			// A module that fails structural verification is the most
			// severe finding there is; report it in diagnostic form.
			if v.jsonOut {
				v.report(*input, ir.Diags{{Sev: ir.SevError, Rule: "verify", Pos: ir.Pos{Instr: ir.NoInstr}, Msg: err.Error()}})
			} else {
				fmt.Fprintf(out, "%s: error[verify]: %v\n", *input, err)
				fmt.Fprintf(out, "%s: 1 error, 0 warnings, 0 infos\n", *input)
				v.errors++
			}
		} else {
			v.vetModule(*input, m)
		}
	case *bin != "":
		f, err := os.Open(*bin)
		if err != nil {
			fmt.Fprintf(stderr, "pcvet: %v\n", err)
			return 1
		}
		b, err := progbin.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "pcvet: %v\n", err)
			return 1
		}
		v.vetBinary(*bin, b)
	}

	if v.errors > 0 {
		fmt.Fprintf(stderr, "pcvet: %d error finding(s)\n", v.errors)
		return 1
	}
	return 0
}

// vetter accumulates findings across targets and formats the report.
type vetter struct {
	out     io.Writer
	max     int
	jsonOut bool
	errors  int // error-severity findings across every target
}

// jsonPos mirrors ir.Pos with stable lower-case keys for machine
// consumers; coarser-scoped findings leave the finer fields zeroed.
type jsonPos struct {
	Module string `json:"module,omitempty"`
	Func   string `json:"func,omitempty"`
	Block  string `json:"block,omitempty"`
	Instr  int    `json:"instr"`
	Term   bool   `json:"term,omitempty"`
}

// jsonFinding is one finding in -format json output, one object per line.
type jsonFinding struct {
	Target   string  `json:"target"`
	Severity string  `json:"severity"`
	Rule     string  `json:"rule"`
	Pos      jsonPos `json:"pos"`
	Msg      string  `json:"msg"`
}

// jsonSummary closes each target's findings in -format json output.
type jsonSummary struct {
	Target    string `json:"target"`
	Summary   bool   `json:"summary"`
	Errors    int    `json:"errors"`
	Warnings  int    `json:"warnings"`
	Infos     int    `json:"infos"`
	Truncated int    `json:"truncated,omitempty"`
}

// vetModule lints a finalized module and, when it compiles cleanly, the
// lowered protean code too — a pcvet run covers both layers the way the
// paper's toolchain does (static IR then runtime-visible ISA).
func (v *vetter) vetModule(name string, m *ir.Module) {
	diags := dataflow.Lint(m)
	bin, err := pcc.Compile(m, pcc.Options{Protean: true, NoVet: true})
	if err != nil {
		diags = append(diags, ir.Diag{
			Sev:  ir.SevError,
			Rule: "lower",
			Pos:  ir.Pos{Module: m.Name},
			Msg:  err.Error(),
		})
	} else {
		diags = append(diags, isa.LintProgram(bin.Program)...)
	}
	v.report(name, diags)
}

// vetBinary lints a compiled binary's code, and its embedded IR when the
// binary is protean.
func (v *vetter) vetBinary(name string, b *progbin.Binary) {
	diags := isa.LintProgram(b.Program)
	if b.HasIR() {
		m, err := b.DecodeIR()
		if err != nil {
			diags = append(diags, ir.Diag{
				Sev:  ir.SevError,
				Rule: "embedded-ir",
				Msg:  fmt.Sprintf("cannot decode embedded IR: %v", err),
			})
		} else {
			diags = append(diags, dataflow.Lint(m)...)
		}
	}
	v.report(name, diags)
}

// report prints one target's findings (capped at v.max) and its summary
// line, and tallies error-severity findings.
func (v *vetter) report(name string, diags ir.Diags) {
	if v.jsonOut {
		v.reportJSON(name, diags)
		return
	}
	for i, d := range diags {
		if v.max > 0 && i == v.max {
			fmt.Fprintf(v.out, "%s: ... and %d more finding(s)\n", name, len(diags)-v.max)
			break
		}
		fmt.Fprintf(v.out, "%s: %s\n", name, d)
	}
	fmt.Fprintf(v.out, "%s: %d errors, %d warnings, %d infos\n",
		name, diags.Errors(), diags.Warnings(), diags.Infos())
	v.errors += diags.Errors()
}

// reportJSON is report in machine form: one finding object per line, then
// a summary object carrying the full (untruncated) severity counts.
func (v *vetter) reportJSON(name string, diags ir.Diags) {
	enc := json.NewEncoder(v.out)
	truncated := 0
	for i, d := range diags {
		if v.max > 0 && i == v.max {
			truncated = len(diags) - v.max
			break
		}
		enc.Encode(jsonFinding{
			Target:   name,
			Severity: d.Sev.String(),
			Rule:     d.Rule,
			Pos: jsonPos{
				Module: d.Pos.Module,
				Func:   d.Pos.Func,
				Block:  d.Pos.Block,
				Instr:  d.Pos.Instr,
				Term:   d.Pos.Term,
			},
			Msg: d.Msg,
		})
	}
	enc.Encode(jsonSummary{
		Target:    name,
		Summary:   true,
		Errors:    diags.Errors(),
		Warnings:  diags.Warnings(),
		Infos:     diags.Infos(),
		Truncated: truncated,
	})
	v.errors += diags.Errors()
}
