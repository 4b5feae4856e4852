package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// snapshot is the process-wide state a phase's counter deltas are taken
// across: the program's own telemetry registry, the Go runtime's
// allocation and GC accounting, process CPU time and host CPU time.
type snapshot struct {
	at       time.Time
	counters map[string]float64 // telemetry.Default; histograms as name.sum / name.count
	runtime  [4]float64         // see runtimeMetrics
	procCPU  time.Duration      // user + system time of this process
	host     hostCPU
}

// runtimeMetrics are read with runtime/metrics, which does not stop the
// world.
var runtimeMetrics = [4]string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in clock ticks.
type hostCPU struct {
	total, busy, steal uint64
}

func (b hostCPU) since(a hostCPU) hostCPU {
	return hostCPU{total: b.total - a.total, busy: b.busy - a.busy, steal: b.steal - a.steal}
}

// granted is the share of the CPU time the guest asked for that the
// hypervisor gave it: busy / (busy + steal). Wall time times this share is
// the time the run would have taken with no other guest on the host.
func (h hostCPU) granted() float64 {
	if h.busy+h.steal == 0 {
		return 1
	}
	return float64(h.busy) / float64(h.busy+h.steal)
}

func takeSnapshot() (snapshot, error) {
	s := snapshot{at: time.Now(), counters: make(map[string]float64)}
	for name, v := range telemetry.Default.Expvar().(map[string]any) {
		switch v := v.(type) {
		case uint64:
			s.counters[name] = float64(v)
		case int64:
			s.counters[name] = float64(v)
		case map[string]any:
			s.counters[name+".sum"], _ = v["sum"].(float64)
			if c, ok := v["count"].(uint64); ok {
				s.counters[name+".count"] = float64(c)
			}
		}
	}
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for i, sm := range samples {
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			s.runtime[i] = float64(sm.Value.Uint64())
		case metrics.KindFloat64:
			s.runtime[i] = sm.Value.Float64()
		default:
			return s, fmt.Errorf("runtime metric %s unsupported by this Go runtime", sm.Name)
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.procCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	h, err := readHostCPU()
	if err != nil {
		return s, err
	}
	s.host = h
	return s, nil
}

// delta is what happened between two snapshots.
type delta struct {
	wall     time.Duration
	counters map[string]float64
	runtime  [4]float64
	procCPU  time.Duration
	host     hostCPU
}

func (b snapshot) since(a snapshot) delta {
	d := delta{
		wall:     b.at.Sub(a.at),
		counters: make(map[string]float64, len(b.counters)),
		procCPU:  b.procCPU - a.procCPU,
		host:     b.host.since(a.host),
	}
	for k, v := range b.counters {
		d.counters[k] = v - a.counters[k]
	}
	for i := range d.runtime {
		d.runtime[i] = b.runtime[i] - a.runtime[i]
	}
	return d
}

// counter returns a telemetry counter's growth across the delta.
func (d delta) counter(name string) float64 { return d.counters[name] }

// stageMeanMS returns the mean of a telemetry histogram (in seconds) over
// the delta, in milliseconds.
func (d delta) stageMeanMS(hist string) float64 {
	return ratio(d.counters[hist+".sum"], d.counters[hist+".count"]) * 1e3
}

func (d delta) allocBytes() float64 { return d.runtime[0] }
func (d delta) gcCycles() float64   { return d.runtime[1] }

// gcCPUPct is the share of the process's busy CPU time the garbage
// collector took, as the runtime's own CPU-class accounting estimates it.
func (d delta) gcCPUPct() float64 {
	return 100 * ratio(d.runtime[2], d.runtime[2]+d.runtime[3])
}

// stealPct is the share of host CPU time the hypervisor gave to other
// guests — the usual cause of an outlier run on a shared machine.
func (d delta) stealPct() float64 {
	return 100 * ratio(float64(d.host.steal), float64(d.host.total))
}

func readHostCPU() (hostCPU, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return hostCPU{}, fmt.Errorf("reading /proc/stat: %w", err)
	}
	return parseHostCPU(line)
}

// parseHostCPU reads "cpu user nice system idle iowait irq softirq steal
// ...": total counts the first eight fields (guest time is already inside
// user), busy the ones that are not idle, iowait or steal.
func parseHostCPU(line string) (hostCPU, error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var h hostCPU
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("/proc/stat field %d: %w", i, err)
		}
		h.total += v
		switch i {
		case 1, 2, 3, 6, 7:
			h.busy += v
		case 8:
			h.steal = v
		}
	}
	return h, nil
}

// peakRSSMB returns the process's high-water resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
