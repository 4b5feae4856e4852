package paper

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/pkg/coest"
)

// Row is one measurement of the harness: a single estimation joined with
// its provenance — the run id
// linking back to manifest.json, the grid coordinates that produced it, and
// the live error budget / attribution rollup of the accelerated report.
type Row struct {
	RunID      string // timestamp id of the run directory (joins manifest.json)
	Experiment string // experiment id from the spec
	Kind       string // experiment kind (table1, serving, ...)
	System     string // subject system (tcpip, ...)
	Variant    string // measurement variant: base, ecache, cold, a priority assignment, a HW/SW mapping, ...
	DMA        int    // DMA block size of the point (0 for the prodcons-only kinds: no bus traffic)
	Packets    int    // workload packets
	Repeat     int    // 0-based independent repeat index
	Seed       int64  // workload seed policy (spec.Seed)

	EnergyJ float64 // report total energy (separate kind: one machine's compute energy)
	SWJ     float64
	HWJ     float64
	BusJ    float64
	SimNS   int64 // simulated time
	WallNS  int64 // wall time of the measurement (see variant semantics)

	ISSCalls  uint64
	ISSInsts  uint64
	GateExecs uint64

	// Live error budget of the accelerated run (paper Tables 1-3 accuracy
	// columns, computed online). Zero for unaccelerated variants.
	BudgetBoundJ float64
	BudgetCI95J  float64
	BudgetUncal  bool

	// AttribTotalJ is the energy attribution ledger's reconciled total,
	// recorded when attribution was enabled for the variant (its agreement
	// with EnergyJ is the ledger conservation check).
	AttribTotalJ float64

	// Peak power of the recorded waveform (KindWaveform only).
	PeakW    float64
	PeakAtNS int64
}

// fill copies the report's result fields into the row.
func (r *Row) fill(rep *coest.Report) {
	r.EnergyJ = rep.Total.Joules()
	r.SWJ = rep.SWEnergy.Joules()
	r.HWJ = rep.HWEnergy.Joules()
	r.BusJ = rep.BusEnergy.Joules()
	r.SimNS = int64(rep.SimulatedTime)
	r.WallNS = rep.Wall.Nanoseconds()
	r.ISSCalls = rep.ISSCalls
	r.ISSInsts = rep.ISSInsts
	r.GateExecs = rep.GateExecs
	if rep.Budget != nil {
		r.BudgetBoundJ = rep.Budget.Bound.Joules()
		r.BudgetCI95J = rep.Budget.CI95.Joules()
		r.BudgetUncal = rep.Budget.Uncalibrated
	}
	if rep.Attribution != nil {
		r.AttribTotalJ = rep.Attribution.Total.Joules()
	}
}

// rowHeader is the results.csv column order. The reader finds columns by
// name, so committed baselines with added or retired columns still load.
var rowHeader = []string{
	"run_id", "experiment", "kind", "system", "variant",
	"dma", "packets", "repeat", "seed",
	"energy_j", "sw_j", "hw_j", "bus_j", "sim_ns", "wall_ns",
	"iss_calls", "iss_insts", "gate_execs",
	"budget_bound_j", "budget_ci95_j", "budget_uncalibrated",
	"attrib_total_j", "peak_w", "peak_at_ns",
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func itoa(v int64) string   { return strconv.FormatInt(v, 10) }
func utoa(v uint64) string  { return strconv.FormatUint(v, 10) }
func btoa(v bool) string    { return strconv.FormatBool(v) }

// record renders the row in rowHeader order.
func (r *Row) record() []string {
	return []string{
		r.RunID, r.Experiment, r.Kind, r.System, r.Variant,
		itoa(int64(r.DMA)), itoa(int64(r.Packets)), itoa(int64(r.Repeat)), itoa(r.Seed),
		ftoa(r.EnergyJ), ftoa(r.SWJ), ftoa(r.HWJ), ftoa(r.BusJ), itoa(r.SimNS), itoa(r.WallNS),
		utoa(r.ISSCalls), utoa(r.ISSInsts), utoa(r.GateExecs),
		ftoa(r.BudgetBoundJ), ftoa(r.BudgetCI95J), btoa(r.BudgetUncal),
		ftoa(r.AttribTotalJ), ftoa(r.PeakW), itoa(r.PeakAtNS),
	}
}

// WriteResults writes rows as results.csv.
func WriteResults(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(rowHeader); err != nil {
		return err
	}
	for i := range rows {
		if err := cw.Write(rows[i].record()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadResults parses a results.csv back into rows, resolving columns by
// header name so older/newer artifacts stay readable.
func ReadResults(r io.Reader) ([]Row, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("paper: empty results file")
	}
	col := map[string]int{}
	for i, name := range recs[0] {
		col[name] = i
	}
	get := func(rec []string, name string) string {
		i, ok := col[name]
		if !ok || i >= len(rec) {
			return ""
		}
		return rec[i]
	}
	var perr error
	pf := func(rec []string, name string) float64 {
		s := get(rec, name)
		if s == "" {
			return 0
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil && perr == nil {
			perr = fmt.Errorf("paper: bad %s value %q", name, s)
		}
		return v
	}
	pi := func(rec []string, name string) int64 {
		s := get(rec, name)
		if s == "" {
			return 0
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil && perr == nil {
			perr = fmt.Errorf("paper: bad %s value %q", name, s)
		}
		return v
	}
	rows := make([]Row, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		row := Row{
			RunID:      get(rec, "run_id"),
			Experiment: get(rec, "experiment"),
			Kind:       get(rec, "kind"),
			System:     get(rec, "system"),
			Variant:    get(rec, "variant"),
			DMA:        int(pi(rec, "dma")),
			Packets:    int(pi(rec, "packets")),
			Repeat:     int(pi(rec, "repeat")),
			Seed:       pi(rec, "seed"),
			EnergyJ:    pf(rec, "energy_j"),
			SWJ:        pf(rec, "sw_j"),
			HWJ:        pf(rec, "hw_j"),
			BusJ:       pf(rec, "bus_j"),
			SimNS:      pi(rec, "sim_ns"),
			WallNS:     pi(rec, "wall_ns"),
			ISSCalls:   uint64(pi(rec, "iss_calls")),
			ISSInsts:   uint64(pi(rec, "iss_insts")),
			GateExecs:  uint64(pi(rec, "gate_execs")),

			BudgetBoundJ: pf(rec, "budget_bound_j"),
			BudgetCI95J:  pf(rec, "budget_ci95_j"),
			BudgetUncal:  get(rec, "budget_uncalibrated") == "true",
			AttribTotalJ: pf(rec, "attrib_total_j"),
			PeakW:        pf(rec, "peak_w"),
			PeakAtNS:     pi(rec, "peak_at_ns"),
		}
		if perr != nil {
			return nil, perr
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ReadResultsFile loads the results.csv of a run directory.
func ReadResultsFile(path string) ([]Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadResults(f)
}
