// Package bus implements the behavioral model of the SoC integration
// architecture (paper §3, ref [21]): a shared bus with a priority arbiter,
// DMA block transfers, and a power model that computes per-line switching
// activity from the transaction trace:
//
//	P_bus = ½ · Vdd² · f · Σ_lines C_eff(line) · A(line)
//
// All parameters (priorities, DMA block size, address/data widths, line
// capacitance) can be changed between runs without touching the system
// description — the knob set the paper sweeps in Tables 1–2 and Fig 7.
package bus

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Process-wide bus metrics (aggregated across all instances).
var (
	mGrants = telemetry.Default.Counter("coest_bus_grants_total", "bus arbitrations performed")
	mWords  = telemetry.Default.Counter("coest_bus_words_total", "data words transferred over the bus")
)

// Config parameterizes the integration architecture.
type Config struct {
	AddrBits int // address bus width (lines)
	DataBits int // data bus width (lines)

	// CBit is the effective capacitance per bus line (wiring plus
	// buffers/repeaters), from the system-level floorplan budget.
	CBit units.Capacitance
	Vdd  units.Voltage

	Clock units.Frequency // bus clock

	ArbCycles  uint64 // arbitration latency per grant
	WordCycles uint64 // cycles per data word transferred (incl. memory)

	// DMASize is the maximum block size in words per grant: a request
	// longer than this re-arbitrates between blocks.
	DMASize int

	// Priority maps master id to priority; lower value wins. Masters not
	// present default to priority 100 + id (stable but last).
	Priority map[int]int

	// ArbToggle is the equivalent number of control-line toggles charged
	// per arbitration (request/grant handshake activity).
	ArbToggle uint64
}

// DefaultConfig mirrors the paper's Fig 7 parameter set: Vdd = 3.3 V, 8-bit
// address and data buses. The paper prints C_bit = 10 nF, which is five
// orders of magnitude off any plausible on-chip line; we use 10 pF and note
// the substitution in EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		AddrBits:   8,
		DataBits:   8,
		CBit:       10 * units.Picofarad,
		Vdd:        3.3,
		Clock:      25e6,
		ArbCycles:  2,
		WordCycles: 1,
		DMASize:    4,
		ArbToggle:  4,
		Priority:   map[int]int{},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.AddrBits <= 0 || c.AddrBits > 32 {
		return fmt.Errorf("bus: AddrBits %d out of range", c.AddrBits)
	}
	if c.DataBits <= 0 || c.DataBits > 32 {
		return fmt.Errorf("bus: DataBits %d out of range", c.DataBits)
	}
	if c.DMASize <= 0 {
		return fmt.Errorf("bus: DMASize must be positive, got %d", c.DMASize)
	}
	if c.Clock <= 0 {
		return fmt.Errorf("bus: non-positive clock")
	}
	return nil
}

// Request is one master's transfer: len(Data) words starting at Addr.
// Done, if non-nil, fires when the last block completes.
type Request struct {
	Master int
	Addr   uint32
	Data   []uint32
	Write  bool
	Done   func()

	remaining int // words still to transfer
	offset    int
}

// Grant is one arbitration outcome (a block transfer), as the per-grant
// hook sees it (OnGrant).
type Grant struct {
	Master int
	Words  int
	Write  bool
	Energy units.Energy // switching energy of this block
}

// Stats aggregates bus activity.
type Stats struct {
	Transactions uint64 // requests completed
	Grants       uint64 // arbitrations performed
	Words        uint64 // data words transferred
	BusyCycles   uint64
	AddrToggles  uint64
	DataToggles  uint64
	CtrlToggles  uint64
	Energy       units.Energy
}

// Bus is the shared-bus instance, driven by the discrete-event kernel.
type Bus struct {
	cfg    Config
	kernel *sim.Kernel

	pending   []*Request // FIFO per arrival, arbitrated by priority
	busy      bool
	lastAddr  uint32
	lastData  uint32
	stats     Stats
	perMaster map[int]*Stats
	onGrant   func(Grant)
	trc       *telemetry.Tracer

	// next is arbitrate bound once, so scheduling the next arbitration
	// after every grant allocates nothing.
	next func()
}

// New returns a bus attached to the kernel.
func New(k *sim.Kernel, cfg Config) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Bus{cfg: cfg, kernel: k, perMaster: make(map[int]*Stats)}
	b.next = b.arbitrate
	return b, nil
}

// MustNew is New, panicking on config errors.
func MustNew(k *sim.Kernel, cfg Config) *Bus {
	b, err := New(k, cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// Stats returns the aggregate statistics so far.
func (b *Bus) Stats() Stats { return b.stats }

// MasterStats returns the per-master statistics (nil Stats if unused).
func (b *Bus) MasterStats(master int) Stats {
	if s := b.perMaster[master]; s != nil {
		return *s
	}
	return Stats{}
}

// OnGrant sets a hook called with every grant as it is made (nil, the
// default, sets none). Sequence compaction (§4.3) consumes the grant stream
// through it.
func (b *Bus) OnGrant(fn func(Grant)) { b.onGrant = fn }

// SetTracer attaches the typed event stream: every grant is emitted as a
// KindBusTransaction event. A nil tracer (the default) costs nothing.
func (b *Bus) SetTracer(trc *telemetry.Tracer) { b.trc = trc }

// Submit queues a transfer request. A zero-length request completes
// immediately (Done fires this instant via the kernel).
func (b *Bus) Submit(r *Request) {
	if len(r.Data) == 0 {
		if r.Done != nil {
			done := r.Done
			b.kernel.After(0, done)
		}
		return
	}
	r.remaining = len(r.Data)
	r.offset = 0
	b.pending = append(b.pending, r)
	if !b.busy {
		b.arbitrate()
	}
}

func (b *Bus) priorityOf(master int) int {
	if p, ok := b.cfg.Priority[master]; ok {
		return p
	}
	return 100 + master
}

// arbitrate picks the highest-priority pending request and transfers one
// DMA block, then re-arbitrates.
func (b *Bus) arbitrate() {
	if len(b.pending) == 0 {
		b.busy = false
		return
	}
	b.busy = true

	best := 0
	for i := 1; i < len(b.pending); i++ {
		if b.priorityOf(b.pending[i].Master) < b.priorityOf(b.pending[best].Master) {
			best = i
		}
	}
	r := b.pending[best]

	words := r.remaining
	if words > b.cfg.DMASize {
		words = b.cfg.DMASize
	}
	blockAddr := r.Addr + uint32(r.offset)*4
	cycles := b.cfg.ArbCycles + uint64(words)*b.cfg.WordCycles
	period := b.cfg.Clock.Period()
	start := b.kernel.Now()
	end := start + units.Time(cycles)*period

	// Switching activity over this block.
	ms := b.perMaster[r.Master]
	if ms == nil {
		ms = &Stats{}
		b.perMaster[r.Master] = ms
	}
	addrMask := mask(b.cfg.AddrBits)
	dataMask := mask(b.cfg.DataBits)
	var addrTog, dataTog uint64
	for i := 0; i < words; i++ {
		a := (blockAddr + uint32(i)*4) & addrMask
		d := r.Data[r.offset+i] & dataMask
		addrTog += uint64(bits.OnesCount32(b.lastAddr ^ a))
		dataTog += uint64(bits.OnesCount32(b.lastData ^ d))
		b.lastAddr, b.lastData = a, d
	}
	ctrlTog := b.cfg.ArbToggle
	energy := units.SwitchEnergy(b.cfg.CBit, b.cfg.Vdd, addrTog+dataTog+ctrlTog)

	b.stats.Grants++
	b.stats.Words += uint64(words)
	b.stats.BusyCycles += cycles
	b.stats.AddrToggles += addrTog
	b.stats.DataToggles += dataTog
	b.stats.CtrlToggles += ctrlTog
	b.stats.Energy += energy
	ms.Grants++
	ms.Words += uint64(words)
	ms.BusyCycles += cycles
	ms.AddrToggles += addrTog
	ms.DataToggles += dataTog
	ms.CtrlToggles += ctrlTog
	ms.Energy += energy

	mGrants.Inc()
	mWords.Add(uint64(words))
	b.trc.Emit(telemetry.Event{
		Time: start, Kind: telemetry.KindBusTransaction,
		Component: "bus", Machine: r.Master,
		Addr: blockAddr, Words: words, Write: r.Write,
		Dur: end - start, Energy: energy,
	})
	if b.onGrant != nil {
		b.onGrant(Grant{Master: r.Master, Words: words, Write: r.Write, Energy: energy})
	}

	r.remaining -= words
	r.offset += words
	if r.remaining == 0 {
		b.pending = append(b.pending[:best], b.pending[best+1:]...)
		b.stats.Transactions++
		ms.Transactions++
		if r.Done != nil {
			done := r.Done
			b.kernel.At(end, done)
		}
	}
	b.kernel.At(end, b.next)
}

func mask(bits int) uint32 {
	if bits >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(bits) - 1
}
