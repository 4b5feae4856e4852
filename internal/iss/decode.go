package iss

import (
	"fmt"
	"math/bits"

	"repro/internal/sparc"
	"repro/internal/units"
)

// decoded is one predecoded instruction: everything the per-instruction
// execution loop needs, resolved once at LoadProgram so the hot path never
// re-derives opcode classes, cycle counts, sign extensions or branch
// targets. Entries are indexed by (pc - progBase) / 4.
type decoded struct {
	imm    uint32 // operand-2 immediate (sign-extended); SETHI: pre-shifted result
	target uint32 // absolute CALL/branch target (pc + disp*4)
	cycles uint32 // base cycle cost from the timing model
	op     sparc.Op
	class  sparc.Class
	rd     sparc.Reg
	rs1    sparc.Reg
	rs2    sparc.Reg
	useImm bool
	annul  bool
	store  bool // IsStore(op): store data register participates in interlock
	exempt bool // SETHI/CALL/branch: never pays the load-use interlock
}

// predecode lowers a program's instruction stream against a timing model.
func predecode(p *sparc.Program, t *TimingModel) []decoded {
	dec := make([]decoded, len(p.Insts))
	for i, inst := range p.Insts {
		pc := p.Base + uint32(i)*4
		op := inst.Op
		d := &dec[i]
		d.op = op
		d.class = sparc.ClassOf(op)
		d.rd = inst.Rd
		d.rs1 = inst.Rs1
		d.rs2 = inst.Rs2
		d.imm = uint32(inst.Imm)
		d.cycles = uint32(t.CyclesOf(op))
		d.useImm = inst.UseImm
		d.annul = inst.Annul
		d.store = sparc.IsStore(op)
		d.exempt = op == sparc.SETHI || op == sparc.CALL || sparc.IsBranch(op)
		switch {
		case op == sparc.SETHI:
			d.imm = uint32(inst.Imm) << 10
		case op == sparc.CALL || sparc.IsBranch(op):
			d.target = pc + uint32(inst.Imm)*4
		}
	}
	return dec
}

// run executes up to limit instructions from the predecoded stream, stopping
// early when the CPU halts or an execution fault occurs. It reports how many
// Step-equivalents ran (a halt probe counts as one, matching the historical
// Step loop). All per-instruction state lives in locals; architectural state
// is synced back to the CPU before returning. Statistics accumulate in the
// same order as always, so energies stay bit-identical.
func (c *CPU) run(limit uint64) (executed uint64, err error) {
	dec := c.dec
	base := c.progBase
	n := uint32(len(dec))
	t := c.Timing
	pw := c.Power
	pc, npc := c.pc, c.npc

	// Running statistics, seeded from the cumulative counters so the energy
	// float accumulates in exactly the historical order.
	energy := c.stats.Energy
	cycAcc := c.stats.Cycles
	stallAcc := c.stats.Stalls
	trapAcc := c.stats.Traps
	instAcc := c.stats.Insts
	lastClass := c.lastClass
	pending := c.pendingLoad
	iccN, iccZ, iccV, iccC := c.iccN, c.iccZ, c.iccV, c.iccC

	// The loop keeps every per-instruction value in locals; no closures, so
	// the compiler can keep them in registers. Error paths set err and break
	// to the single sync point below.
	// An entry at HaltAddr is a halt probe: it counts as one Step-equivalent
	// (matching the historical Step loop) and executes nothing. Inside the
	// loop the halt test runs once per executed instruction, at the bottom.
	if pc == HaltAddr && limit > 0 {
		c.halted = true
		executed++
		limit = 0
	}

loop:
	for executed < limit {
		if c.FetchHook != nil {
			c.FetchHook(pc)
		}
		idx := (pc - base) >> 2
		if idx >= n || pc&3 != 0 {
			err = fmt.Errorf("iss: instruction fetch outside program: pc=%#x", pc)
			break loop
		}
		d := &dec[idx]
		op := d.op
		cycles := uint64(d.cycles)
		var stalls uint64

		// Load-use interlock: the instruction right after a load stalls if
		// it reads the loaded register (stores read Rd as their data
		// source).
		if pending != sparc.G0 {
			if !d.exempt &&
				(d.rs1 == pending || (!d.useImm && d.rs2 == pending) || (d.store && d.rd == pending)) {
				stalls += t.LoadUseStall
			}
			pending = sparc.G0
		}

		newPC, newNPC := npc, npc+4
		var result uint32

		switch op {
		case sparc.SETHI:
			result = d.imm
			c.setReg(d.rd, result)

		case sparc.CALL:
			c.rf[sparc.O7] = pc
			newNPC = d.target
			result = pc

		case sparc.BA, sparc.BN, sparc.BE, sparc.BNE, sparc.BG, sparc.BLE,
			sparc.BGE, sparc.BL, sparc.BGU, sparc.BLEU, sparc.BCC,
			sparc.BCS, sparc.BPOS, sparc.BNEG:
			var taken bool
			switch op {
			case sparc.BA:
				taken = true
			case sparc.BN:
				taken = false
			case sparc.BE:
				taken = iccZ
			case sparc.BNE:
				taken = !iccZ
			case sparc.BG:
				taken = !(iccZ || (iccN != iccV))
			case sparc.BLE:
				taken = iccZ || (iccN != iccV)
			case sparc.BGE:
				taken = iccN == iccV
			case sparc.BL:
				taken = iccN != iccV
			case sparc.BGU:
				taken = !(iccC || iccZ)
			case sparc.BLEU:
				taken = iccC || iccZ
			case sparc.BCC:
				taken = !iccC
			case sparc.BCS:
				taken = iccC
			case sparc.BPOS:
				taken = !iccN
			case sparc.BNEG:
				taken = iccN
			}
			if taken {
				newNPC = d.target
				stalls += t.TakenBranchStall
				if op == sparc.BA && d.annul {
					// ba,a annuls the delay slot and jumps immediately.
					newPC = d.target
					newNPC = d.target + 4
					stalls += t.AnnulStall
				}
			} else if d.annul {
				// Untaken with annul: squash the delay slot.
				newPC = npc + 4
				newNPC = npc + 8
				stalls += t.AnnulStall
			}

		case sparc.JMPL:
			target := c.rf[d.rs1] + c.operand2d(d)
			c.setReg(d.rd, pc)
			newNPC = target
			stalls += t.TakenBranchStall
			result = pc

		case sparc.SAVE:
			a, b := c.rf[d.rs1], c.operand2d(d)
			result = a + b
			var sw savedWindow
			copy(sw[:], c.rf[16:32])
			c.winss = append(c.winss, sw)
			copy(c.rf[24:32], c.rf[8:16]) // ins = outs
			for i := 8; i < 24; i++ {     // fresh outs and locals
				c.rf[i] = 0
			}
			if c.hwLive >= t.Windows-1 {
				// Window overflow trap: spill one frame.
				trapAcc++
				c.spilled++
				stalls += t.WindowTrapCycles
			} else {
				c.hwLive++
			}
			c.setReg(d.rd, result)

		case sparc.RESTORE:
			a, b := c.rf[d.rs1], c.operand2d(d)
			result = a + b
			if len(c.winss) == 0 {
				err = fmt.Errorf("iss: restore with empty window stack at pc=%#x", pc)
				break loop
			}
			copy(c.rf[8:16], c.rf[24:32]) // outs = ins
			top := c.winss[len(c.winss)-1]
			c.winss = c.winss[:len(c.winss)-1]
			copy(c.rf[16:32], top[:])
			if c.spilled > 0 && c.hwLive == 1 {
				// Window underflow trap: fill a spilled frame.
				trapAcc++
				c.spilled--
				stalls += t.WindowTrapCycles
			} else if c.hwLive > 1 {
				c.hwLive--
			}
			c.setReg(d.rd, result)

		case sparc.LD:
			addr := c.rf[d.rs1] + c.operand2d(d)
			if addr&3 != 0 {
				err = fmt.Errorf("iss: misaligned word load at %#x (pc=%#x)", addr, pc)
				break loop
			}
			result = c.Mem.Read32(addr)
			c.setReg(d.rd, result)
			pending = d.rd

		case sparc.LDUB:
			addr := c.rf[d.rs1] + c.operand2d(d)
			result = uint32(c.Mem.Read8(addr))
			c.setReg(d.rd, result)
			pending = d.rd

		case sparc.LDUH:
			addr := c.rf[d.rs1] + c.operand2d(d)
			if addr&1 != 0 {
				err = fmt.Errorf("iss: misaligned halfword load at %#x (pc=%#x)", addr, pc)
				break loop
			}
			result = uint32(c.Mem.Read16(addr))
			c.setReg(d.rd, result)
			pending = d.rd

		case sparc.ST:
			addr := c.rf[d.rs1] + c.operand2d(d)
			v := c.rf[d.rd]
			result = v
			if addr&3 != 0 {
				err = fmt.Errorf("iss: misaligned word store at %#x (pc=%#x)", addr, pc)
				break loop
			}
			c.Mem.Write32(addr, v)

		case sparc.STB:
			addr := c.rf[d.rs1] + c.operand2d(d)
			v := c.rf[d.rd]
			result = v
			c.Mem.Write8(addr, uint8(v))

		case sparc.STH:
			addr := c.rf[d.rs1] + c.operand2d(d)
			v := c.rf[d.rd]
			result = v
			if addr&1 != 0 {
				err = fmt.Errorf("iss: misaligned halfword store at %#x (pc=%#x)", addr, pc)
				break loop
			}
			c.Mem.Write16(addr, uint16(v))

		case sparc.ADD:
			result = c.rf[d.rs1] + c.operand2d(d)
			c.setReg(d.rd, result)
		case sparc.ADDCC:
			a, b := c.rf[d.rs1], c.operand2d(d)
			result = a + b
			iccN = int32(result) < 0
			iccZ = result == 0
			iccV = (^(a^b)&(a^result))>>31 == 1
			iccC = result < a
			c.setReg(d.rd, result)
		case sparc.SUB:
			result = c.rf[d.rs1] - c.operand2d(d)
			c.setReg(d.rd, result)
		case sparc.SUBCC:
			a, b := c.rf[d.rs1], c.operand2d(d)
			result = a - b
			iccN = int32(result) < 0
			iccZ = result == 0
			iccV = ((a^b)&(a^result))>>31 == 1
			iccC = b > a
			c.setReg(d.rd, result)
		case sparc.AND:
			result = c.rf[d.rs1] & c.operand2d(d)
			c.setReg(d.rd, result)
		case sparc.ANDCC:
			result = c.rf[d.rs1] & c.operand2d(d)
			iccN, iccZ, iccV, iccC = int32(result) < 0, result == 0, false, false
			c.setReg(d.rd, result)
		case sparc.OR:
			result = c.rf[d.rs1] | c.operand2d(d)
			c.setReg(d.rd, result)
		case sparc.ORCC:
			result = c.rf[d.rs1] | c.operand2d(d)
			iccN, iccZ, iccV, iccC = int32(result) < 0, result == 0, false, false
			c.setReg(d.rd, result)
		case sparc.XOR:
			result = c.rf[d.rs1] ^ c.operand2d(d)
			c.setReg(d.rd, result)
		case sparc.XORCC:
			result = c.rf[d.rs1] ^ c.operand2d(d)
			iccN, iccZ, iccV, iccC = int32(result) < 0, result == 0, false, false
			c.setReg(d.rd, result)
		case sparc.SLL:
			result = c.rf[d.rs1] << (c.operand2d(d) & 31)
			c.setReg(d.rd, result)
		case sparc.SRL:
			result = c.rf[d.rs1] >> (c.operand2d(d) & 31)
			c.setReg(d.rd, result)
		case sparc.SRA:
			result = uint32(int32(c.rf[d.rs1]) >> (c.operand2d(d) & 31))
			c.setReg(d.rd, result)
		case sparc.UMUL:
			result = uint32(uint64(c.rf[d.rs1]) * uint64(c.operand2d(d)))
			c.setReg(d.rd, result)
		case sparc.SMUL:
			result = uint32(int64(int32(c.rf[d.rs1])) * int64(int32(c.operand2d(d))))
			c.setReg(d.rd, result)
		case sparc.UDIV:
			a, b := c.rf[d.rs1], c.operand2d(d)
			if b == 0 {
				trapAcc++
				result = 0
			} else {
				result = a / b
			}
			c.setReg(d.rd, result)
		case sparc.SDIV:
			a, b := c.rf[d.rs1], c.operand2d(d)
			if b == 0 || (int32(a) == -1<<31 && int32(b) == -1) {
				trapAcc++
				result = 0
			} else {
				result = uint32(int32(a) / int32(b))
			}
			c.setReg(d.rd, result)

		default:
			err = fmt.Errorf("iss: unimplemented opcode %v at pc=%#x", op, pc)
			break loop
		}

		// Inlined PowerModel.InstEnergy, term for term and in the same
		// order, so energies stay bit-identical. Adding +0.0 for a zero
		// stall term cannot change the sum, so the conversion and multiply
		// are skipped when there are no extra cycles.
		cl := d.class
		extra := (cycles - 1) + stalls
		e := pw.Base[cl] + pw.Overhead[lastClass][cl]
		if extra != 0 {
			e += units.Energy(extra) * pw.Stall
		}
		if pw.DataDependent {
			e += units.Energy(bits.OnesCount32(result)) * pw.DataUnit
		}
		energy += e
		cycAcc += cycles + stalls
		stallAcc += stalls
		instAcc++
		c.instCount[op]++
		lastClass = cl

		pc, npc = newPC, newNPC
		executed++
		if pc == HaltAddr {
			c.halted = true
			break
		}
	}

	c.pc, c.npc = pc, npc
	c.stats.Energy = energy
	c.stats.Cycles = cycAcc
	c.stats.Stalls = stallAcc
	c.stats.Traps = trapAcc
	c.stats.Insts = instAcc
	c.lastClass = lastClass
	c.pendingLoad = pending
	c.iccN, c.iccZ, c.iccV, c.iccC = iccN, iccZ, iccV, iccC
	return executed, err
}

// operand2d returns the second ALU operand of a predecoded instruction.
func (c *CPU) operand2d(d *decoded) uint32 {
	if d.useImm {
		return d.imm
	}
	return c.rf[d.rs2]
}
