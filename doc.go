// Package repro is a from-scratch Go reproduction of "Efficient Power
// Co-Estimation Techniques for System-on-Chip Design" (Lajolo, Raghunathan,
// Dey, Lavagno — DATE 2000).
//
// The library implements the paper's power co-estimation framework — a
// discrete-event simulation master that concurrently and synchronously
// drives per-component power estimators — together with every substrate the
// paper built on: a POLIS-style CFSM behavioral model, software synthesis to
// a real SPARC-like ISA executed by a cycle-level instruction-set simulator
// with a Tiwari-style instruction power model, hardware synthesis to
// gate-level netlists simulated with toggle-count power estimation, a
// transaction-level shared-bus/arbiter/DMA power model, an instruction-cache
// simulator, and an RTOS model. On top sit the paper's three acceleration
// techniques: energy & delay caching, software power macro-modeling, and
// statistical sampling / K-memory sequence compaction.
//
// Start with README.md for orientation, DESIGN.md for the architecture and
// substitution inventory, and EXPERIMENTS.md for the paper-vs-measured
// record of every table and figure. The public entry point is pkg/coest
// (Estimate, Sweep, Session); internal/core is the co-estimation master and
// internal/systems holds the three case studies. scripts/paper/run_all.sh
// regenerates every figure and table through cmd/paperrun, and the runnable
// examples under examples/ show the intended usage.
package repro
