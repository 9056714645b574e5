// Package isa is the executable substrate behind the deployment
// battery's "ISA test suites" (Sec. VII-A: "chip vendors have tailored
// ISA verification suites that provide wider coverage and execute in
// less time"). It implements a small register machine, a seeded
// generator that emits coverage-oriented test programs, and a
// checksumming interpreter — so the stress battery's path-coverage
// component runs real (synthetic) instruction streams with a
// self-checking result, the same contract the uBench kernels provide.
//
// The machine is deliberately tiny — 16 registers, a few hundred words
// of memory, a compact integer ISA — because its role is coverage
// bookkeeping and SDC detection, not architectural fidelity.
package isa

import (
	"fmt"

	"repro/internal/rng"
)

// Op is an instruction opcode.
type Op uint8

// The instruction set: ALU, multiply, memory, branch and compare ops —
// one per functional-unit class a CPM site guards.
const (
	OpAdd    Op = iota // rd = ra + rb
	OpSub              // rd = ra − rb
	OpXor              // rd = ra ^ rb
	OpAnd              // rd = ra & rb
	OpOr               // rd = ra | rb
	OpShl              // rd = ra << (rb & 63)
	OpShr              // rd = ra >> (rb & 63)
	OpMul              // rd = ra * rb (fixed-point unit path)
	OpLoad             // rd = mem[(ra + imm) % len(mem)]
	OpStore            // mem[(ra + imm) % len(mem)] = rb
	OpBranch           // if ra < rb: skip imm%7 instructions (branch path)
	OpCmp              // rd = 1 if ra < rb else 0
	numOps
)

// String names the opcode.
func (o Op) String() string {
	names := [...]string{"add", "sub", "xor", "and", "or", "shl", "shr", "mul", "load", "store", "branch", "cmp"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Inst is one instruction.
type Inst struct {
	Op         Op
	Rd, Ra, Rb uint8
	Imm        int32
}

// Program is a test program plus its coverage accounting.
type Program struct {
	// Seed regenerates the program exactly.
	Seed uint64
	Code []Inst
}

// NumRegs and MemWords size the machine.
const (
	NumRegs  = 16
	MemWords = 256
)

// Generate emits a coverage-oriented test program of n instructions:
// the generator cycles functional-unit classes so every opcode appears,
// sprinkles short forward branches, and seeds registers with
// non-degenerate values via the interpreter's init.
func Generate(seed uint64, n int) Program {
	if n < int(numOps) {
		n = int(numOps) // at least one of each opcode
	}
	src := rng.New(seed)
	p := Program{Seed: seed, Code: make([]Inst, 0, n)}
	for i := 0; i < n; i++ {
		var op Op
		if i < int(numOps) {
			op = Op(i) // guarantee full opcode coverage up front
		} else {
			op = Op(src.Intn(int(numOps)))
		}
		p.Code = append(p.Code, Inst{
			Op:  op,
			Rd:  uint8(1 + src.Intn(NumRegs-1)), // r0 is a zero register
			Ra:  uint8(src.Intn(NumRegs)),
			Rb:  uint8(src.Intn(NumRegs)),
			Imm: int32(src.Intn(4096)),
		})
	}
	return p
}

// Machine is the interpreter state.
type Machine struct {
	Regs [NumRegs]uint64
	Mem  [MemWords]uint64
	// Executed counts retired instructions (branch skips retire the
	// branch only).
	Executed int
	// sig is the running result signature: every retired instruction
	// mixes its operands and destination into it, the way hardware test
	// suites compact results through a MISR. Signatures make the
	// checksum sensitive to any executed-path difference, not just to
	// state that survives to the end.
	sig uint64
}

// Reset initializes the machine to the canonical start state: registers
// and memory filled with a fixed mixing pattern so every path sees
// non-trivial data. r0 stays zero.
func (m *Machine) Reset() {
	for i := range m.Regs {
		m.Regs[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	m.Regs[0] = 0
	for i := range m.Mem {
		m.Mem[i] = uint64(i)*0xBF58476D1CE4E5B9 + 1
	}
	m.Executed = 0
	m.sig = 1469598103934665603
}

// Run executes the program from the canonical start state and returns
// the result checksum (final architectural state plus the per-
// instruction result signature).
func (m *Machine) Run(p Program) uint64 {
	return m.run(p, -1, 0, 0)
}

// run is the interpreter core. When upsetAt ≥ 0, a single-bit register
// upset is injected once the retired-instruction count reaches it.
func (m *Machine) run(p Program, upsetAt int, upsetReg uint8, upsetBit uint) uint64 {
	m.Reset()
	for pc := 0; pc < len(p.Code); pc++ {
		if m.Executed == upsetAt && upsetReg%NumRegs != 0 {
			m.Regs[upsetReg%NumRegs] ^= 1 << (upsetBit % 64)
		}
		in := p.Code[pc]
		m.Executed++
		ra, rb := m.Regs[in.Ra], m.Regs[in.Rb]
		switch in.Op {
		case OpAdd:
			m.set(in.Rd, ra+rb)
		case OpSub:
			m.set(in.Rd, ra-rb)
		case OpXor:
			m.set(in.Rd, ra^rb)
		case OpAnd:
			m.set(in.Rd, ra&rb)
		case OpOr:
			m.set(in.Rd, ra|rb)
		case OpShl:
			m.set(in.Rd, ra<<(rb&63))
		case OpShr:
			m.set(in.Rd, ra>>(rb&63))
		case OpMul:
			m.set(in.Rd, ra*rb)
		case OpLoad:
			m.set(in.Rd, m.Mem[(ra+uint64(in.Imm))%MemWords])
		case OpStore:
			m.Mem[(ra+uint64(in.Imm))%MemWords] = rb
		case OpBranch:
			if ra < rb {
				pc += int(in.Imm % 7)
			}
		case OpCmp:
			if ra < rb {
				m.set(in.Rd, 1)
			} else {
				m.set(in.Rd, 0)
			}
		}
		// Compact this instruction's activity into the signature.
		m.mixSig(uint64(pc)<<48 ^ ra ^ rb<<1 ^ m.Regs[in.Rd])
	}
	return m.checksum()
}

// mixSig folds one value into the running signature.
func (m *Machine) mixSig(v uint64) {
	m.sig ^= v
	m.sig *= 1099511628211
	m.sig ^= m.sig >> 29
}

// set writes a register, preserving the hard-wired zero register.
func (m *Machine) set(rd uint8, v uint64) {
	if rd == 0 {
		return
	}
	m.Regs[rd] = v
}

// checksum mixes the architectural state into a result signature.
func (m *Machine) checksum() uint64 {
	var h uint64 = 1469598103934665603
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
		h ^= h >> 29
	}
	for _, r := range m.Regs {
		mix(r)
	}
	for _, w := range m.Mem {
		mix(w)
	}
	mix(uint64(m.Executed))
	mix(m.sig)
	return h
}

// Suite is a battery of generated test programs with golden checksums.
type Suite struct {
	Programs []Program
	Golden   []uint64
	// executed is each program's retired-instruction count on its
	// golden run.
	executed []int
}

// NewSuite generates count programs of n instructions each and computes
// their golden checksums and retired counts.
func NewSuite(seed uint64, count, n int) Suite {
	s := Suite{
		Programs: make([]Program, 0, count),
		Golden:   make([]uint64, 0, count),
		executed: make([]int, 0, count),
	}
	var m Machine
	for i := 0; i < count; i++ {
		p := Generate(seed+uint64(i)*0x9E37, n)
		s.Programs = append(s.Programs, p)
		s.Golden = append(s.Golden, m.Run(p))
		s.executed = append(s.executed, m.Executed)
	}
	return s
}

// Verify re-runs every program and compares checksums, returning the
// index of the first mismatch (or −1). corrupt, when non-nil, perturbs
// the machine mid-run to emulate a timing-violation upset; Verify then
// confirms the checksum catches it.
func (s Suite) Verify() int {
	var m Machine
	for i, p := range s.Programs {
		if m.Run(p) != s.Golden[i] {
			return i
		}
	}
	return -1
}

// ExecutedCount returns how many instructions program i retires on a
// clean run (branch skips mean this is usually below the program
// length).
func (s Suite) ExecutedCount(i int) int { return s.executed[i] }

// RunCorrupted executes program i with a single-bit register upset
// injected once the retired-instruction count reaches afterInst,
// returning the (possibly corrupted) checksum.
func (s Suite) RunCorrupted(i int, afterInst int, reg uint8, bit uint) uint64 {
	var m Machine
	return m.run(s.Programs[i], afterInst, reg, bit)
}

// ChecksumCatches reports whether the given upset in program i changes
// the checksum. With per-instruction signatures, any upset whose value
// is subsequently read — or that survives to the final state — is
// caught; only an upset overwritten before any use escapes.
func (s Suite) ChecksumCatches(i, afterInst int, reg uint8, bit uint) bool {
	return s.RunCorrupted(i, afterInst, reg, bit) != s.Golden[i]
}
