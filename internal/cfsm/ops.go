// Package cfsm implements the codesign finite state machine (CFSM) model of
// computation used by POLIS, which the paper uses as its system specification
// substrate: a network of FSMs communicating through events, where each
// machine reacts to input events by executing one atomic transition.
//
// A transition's action is a small program over the pre-defined POLIS
// macro-operation library (assignments, event emissions, tests, arithmetic —
// Fig 3 of the paper). Executing a transition produces a Reaction that carries
// the executed macro-op trace and a path identifier; these are exactly the
// artifacts the software power estimators (ISS, macro-model, energy cache)
// consume.
package cfsm

// OpKind identifies one POLIS-style macro-operation. The names mirror the
// parameter-file mnemonics in Fig 3 of the paper (AVV, AEMIT, TIVART, ...).
// The library deliberately has ~30 entries, matching the paper's "about 30
// such functions".
type OpKind uint8

// The macro-operation library.
const (
	AVV     OpKind = iota // assignment of a variable to a variable
	AVC                   // assignment of a constant to a variable
	TIVART                // test on a variable value, true branch taken
	TIVARF                // test on a variable value, false branch taken
	AEMIT                 // emission of an event
	ADETECT               // input event detection at the start of a reaction
	AADD                  // x1 + x2
	ASUB                  // x1 - x2
	AMUL                  // x1 * x2
	ADIV                  // x1 / x2
	AMOD                  // x1 mod x2
	ANEG                  // -x1
	AABS                  // |x1|
	AMIN                  // min(x1, x2)
	AMAX                  // max(x1, x2)
	AAND                  // bitwise and
	AOR                   // bitwise or
	AXOR                  // bitwise xor
	ANOT                  // bitwise not
	ASHL                  // shift left
	ASHR                  // shift right (arithmetic)
	AEQ                   // x1 == x2
	ANE                   // x1 != x2
	ALT                   // x1 < x2
	ALE                   // x1 <= x2
	AGT                   // x1 > x2
	AGE                   // x1 >= x2
	ALAND                 // logical and
	ALOR                  // logical or
	ALNOT                 // logical not
	AMUX                  // sel ? x1 : x2
	ALOAD                 // load from shared memory
	ASTORE                // store to shared memory
	AREPEAT               // bounded-loop bookkeeping, one per iteration
	ARET                  // end of reaction (return to RTOS / idle)

	NumOps // count sentinel, not an op
)

var opNames = [NumOps]string{
	AVV:     "AVV",
	AVC:     "AVC",
	TIVART:  "TIVART",
	TIVARF:  "TIVARF",
	AEMIT:   "AEMIT",
	ADETECT: "ADETECT",
	AADD:    "AADD",
	ASUB:    "ASUB",
	AMUL:    "AMUL",
	ADIV:    "ADIV",
	AMOD:    "AMOD",
	ANEG:    "ANEG",
	AABS:    "AABS",
	AMIN:    "AMIN",
	AMAX:    "AMAX",
	AAND:    "AAND",
	AOR:     "AOR",
	AXOR:    "AXOR",
	ANOT:    "ANOT",
	ASHL:    "ASHL",
	ASHR:    "ASHR",
	AEQ:     "AEQ",
	ANE:     "ANE",
	ALT:     "ALT",
	ALE:     "ALE",
	AGT:     "AGT",
	AGE:     "AGE",
	ALAND:   "ALAND",
	ALOR:    "ALOR",
	ALNOT:   "ALNOT",
	AMUX:    "AMUX",
	ALOAD:   "ALOAD",
	ASTORE:  "ASTORE",
	AREPEAT: "AREPEAT",
	ARET:    "ARET",
}

func (k OpKind) String() string {
	if k < NumOps {
		return opNames[k]
	}
	return "OP?"
}

// ParseOp returns the OpKind with the given mnemonic.
func ParseOp(name string) (OpKind, bool) {
	for k, n := range opNames {
		if n == name {
			return OpKind(k), true
		}
	}
	return 0, false
}

// AllOps returns every macro-operation kind, in declaration order. The
// characterization flow (internal/macromodel, paperrun's characterize kind)
// iterates this to build the parameter file.
func AllOps() []OpKind {
	ops := make([]OpKind, NumOps)
	for i := range ops {
		ops[i] = OpKind(i)
	}
	return ops
}
