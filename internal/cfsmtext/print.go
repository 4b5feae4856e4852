package cfsmtext

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cfsm"
	"repro/internal/core"
)

// Print renders a system back into the textual CFSM language. The output
// parses back into a behaviorally identical system (see the round-trip
// tests), which makes it a faithful export path for programmatically built
// systems and a debugging aid for generated ones.
func Print(sys *core.System) string {
	var b strings.Builder
	for _, m := range sys.Net.Machines {
		printMachine(&b, m)
	}
	printNetwork(&b, sys)
	return b.String()
}

func printMachine(b *strings.Builder, m *cfsm.CFSM) {
	fmt.Fprintf(b, "machine %s {\n", m.Name)
	if len(m.InputNames) > 0 {
		fmt.Fprintf(b, "    input  %s;\n", strings.Join(m.InputNames, ", "))
	}
	if len(m.OutputNames) > 0 {
		fmt.Fprintf(b, "    output %s;\n", strings.Join(m.OutputNames, ", "))
	}
	if len(m.VarNames) > 0 {
		parts := make([]string, len(m.VarNames))
		for i, n := range m.VarNames {
			parts[i] = fmt.Sprintf("%s = %d", n, m.VarInit[i])
		}
		fmt.Fprintf(b, "    var    %s;\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(b, "    state  %s;\n", strings.Join(m.StateNames, ", "))
	for _, tr := range m.Transitions {
		fmt.Fprintln(b)
		trigs := make([]string, len(tr.Trigger))
		for i, ti := range tr.Trigger {
			trigs[i] = m.InputNames[ti]
		}
		fmt.Fprintf(b, "    on %s %s", m.StateNames[tr.From], strings.Join(trigs, ", "))
		if tr.Guard != nil {
			fmt.Fprintf(b, " [%s]", exprText(m, tr.Guard))
		}
		fmt.Fprint(b, " {\n")
		printBlock(b, m, tr.Action, 2)
		fmt.Fprint(b, "    }")
		if tr.To != tr.From {
			fmt.Fprintf(b, " -> %s", m.StateNames[tr.To])
		}
		fmt.Fprint(b, ";\n")
	}
	fmt.Fprint(b, "}\n\n")
}

func printBlock(b *strings.Builder, m *cfsm.CFSM, stmts []cfsm.Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *cfsm.AssignStmt:
			fmt.Fprintf(b, "%s%s := %s;\n", ind, m.VarNames[s.Var], exprText(m, s.E))
		case *cfsm.EmitStmt:
			if s.E == nil {
				fmt.Fprintf(b, "%semit %s;\n", ind, m.OutputNames[s.Port])
			} else {
				fmt.Fprintf(b, "%semit %s(%s);\n", ind, m.OutputNames[s.Port], exprText(m, s.E))
			}
		case *cfsm.IfStmt:
			fmt.Fprintf(b, "%sif (%s) {\n", ind, exprText(m, s.Cond))
			printBlock(b, m, s.Then, depth+1)
			if len(s.Else) > 0 {
				fmt.Fprintf(b, "%s} else {\n", ind)
				printBlock(b, m, s.Else, depth+1)
			}
			fmt.Fprintf(b, "%s};\n", ind)
		case *cfsm.RepeatStmt:
			fmt.Fprintf(b, "%srepeat (%s) {\n", ind, exprText(m, s.Count))
			printBlock(b, m, s.Body, depth+1)
			fmt.Fprintf(b, "%s};\n", ind)
		case *cfsm.MemReadStmt:
			fmt.Fprintf(b, "%s%s := mem[%s];\n", ind, m.VarNames[s.Var], exprText(m, s.Addr))
		case *cfsm.MemWriteStmt:
			fmt.Fprintf(b, "%smem[%s] := %s;\n", ind, exprText(m, s.Addr), exprText(m, s.Val))
		}
	}
}

// binOpText maps function ops back to the language's infix operators.
var binOpText = map[cfsm.OpKind]string{
	cfsm.AADD: "+", cfsm.ASUB: "-", cfsm.AMUL: "*", cfsm.ADIV: "/",
	cfsm.AMOD: "%", cfsm.AAND: "&", cfsm.AOR: "|", cfsm.AXOR: "^",
	cfsm.ASHL: "<<", cfsm.ASHR: ">>",
	cfsm.AEQ: "==", cfsm.ANE: "!=", cfsm.ALT: "<", cfsm.ALE: "<=",
	cfsm.AGT: ">", cfsm.AGE: ">=", cfsm.ALAND: "&&", cfsm.ALOR: "||",
}

func exprText(m *cfsm.CFSM, e *cfsm.Expr) string {
	switch e.Kind() {
	case cfsm.ConstKind:
		return fmt.Sprintf("%d", e.ConstVal())
	case cfsm.VarKind:
		return m.VarNames[e.Ref()]
	case cfsm.EventValKind:
		return "$" + m.InputNames[e.Ref()]
	case cfsm.PresentKind:
		return "?" + m.InputNames[e.Ref()]
	}
	ops := e.Operands()
	if txt, ok := binOpText[e.Op()]; ok {
		return fmt.Sprintf("(%s %s %s)", exprText(m, ops[0]), txt, exprText(m, ops[1]))
	}
	switch e.Op() {
	case cfsm.ANEG:
		return fmt.Sprintf("(-%s)", exprText(m, ops[0]))
	case cfsm.ANOT:
		return fmt.Sprintf("(~%s)", exprText(m, ops[0]))
	case cfsm.ALNOT:
		return fmt.Sprintf("(!%s)", exprText(m, ops[0]))
	case cfsm.AABS:
		return fmt.Sprintf("abs(%s)", exprText(m, ops[0]))
	case cfsm.AMIN:
		return fmt.Sprintf("min(%s, %s)", exprText(m, ops[0]), exprText(m, ops[1]))
	case cfsm.AMAX:
		return fmt.Sprintf("max(%s, %s)", exprText(m, ops[0]), exprText(m, ops[1]))
	case cfsm.AMUX:
		return fmt.Sprintf("mux(%s, %s, %s)",
			exprText(m, ops[0]), exprText(m, ops[1]), exprText(m, ops[2]))
	}
	return "0 /* unsupported */"
}

func printNetwork(b *strings.Builder, sys *core.System) {
	fmt.Fprint(b, "network {\n")

	names := make([]string, 0, len(sys.Procs))
	for n := range sys.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pc := sys.Procs[n]
		fmt.Fprintf(b, "    map %s %v priority %d;\n", n, pc.Mapping, pc.Priority)
	}

	for si, src := range sys.Net.Machines {
		for oi, oname := range src.OutputNames {
			for _, d := range sys.Net.Fanout(si, oi) {
				dst := sys.Net.Machines[d.Machine]
				fmt.Fprintf(b, "    connect %s.%s -> %s.%s;\n",
					src.Name, oname, dst.Name, dst.InputNames[d.Port])
			}
			for _, env := range sys.Net.EnvNames(si, oi) {
				fmt.Fprintf(b, "    env output %s.%s as %s;\n", src.Name, oname, env)
			}
		}
	}
	for _, name := range sys.Net.EnvInputs() {
		for _, d := range sys.Net.EnvDest(name) {
			dst := sys.Net.Machines[d.Machine]
			fmt.Fprintf(b, "    env input  %s -> %s.%s;\n", name, dst.Name, dst.InputNames[d.Port])
		}
	}

	for _, st := range sys.Stimuli {
		fmt.Fprintf(b, "    stimulus %s at %dns = %d;\n", st.Input, int64(st.At), st.Value)
	}
	for _, pp := range sys.Periodic {
		fmt.Fprintf(b, "    stimulus %s every %dns", pp.Input, int64(pp.Period))
		if pp.Count > 0 {
			fmt.Fprintf(b, " count %d", pp.Count)
		}
		fmt.Fprint(b, ";\n")
	}
	fmt.Fprint(b, "}\n")
}
