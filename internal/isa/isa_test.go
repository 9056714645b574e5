package isa

import (
	"testing"
	"testing/quick"
)

// coverage counts how often the program uses each opcode.
func coverage(p Program) map[Op]int {
	out := map[Op]int{}
	for _, in := range p.Code {
		out[in.Op]++
	}
	return out
}

// fullCoverage reports whether every opcode appears at least once.
func fullCoverage(p Program) bool {
	cov := coverage(p)
	for op := Op(0); op < numOps; op++ {
		if cov[op] == 0 {
			return false
		}
	}
	return true
}

func TestGenerateFullCoverage(t *testing.T) {
	for _, n := range []int{0, 5, 12, 100, 1000} {
		p := Generate(7, n)
		if !fullCoverage(p) {
			t.Errorf("program of %d instructions misses opcodes: %v", n, coverage(p))
		}
		if len(p.Code) < int(numOps) {
			t.Errorf("program shorter than the opcode count: %d", len(p.Code))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 200)
	b := Generate(42, 200)
	if len(a.Code) != len(b.Code) {
		t.Fatal("lengths differ")
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	c := Generate(43, 200)
	same := 0
	for i := range c.Code {
		if a.Code[i] == c.Code[i] {
			same++
		}
	}
	if same > len(a.Code)/2 {
		t.Errorf("different seeds produced %d/%d identical instructions", same, len(a.Code))
	}
}

func TestRunDeterministic(t *testing.T) {
	p := Generate(9, 500)
	var m1, m2 Machine
	if m1.Run(p) != m2.Run(p) {
		t.Error("interpreter not deterministic")
	}
}

func TestZeroRegisterHardwired(t *testing.T) {
	p := Generate(11, 400)
	var m Machine
	m.Run(p)
	if m.Regs[0] != 0 {
		t.Errorf("r0 = %#x after run", m.Regs[0])
	}
}

func TestChecksumSensitive(t *testing.T) {
	// Programs differing in one (always-executed) instruction produce
	// different sums. Instruction 0 is OpAdd by construction; rewire it
	// to clear a register instead.
	a := Generate(5, 100)
	b := Generate(5, 100)
	b.Code[0] = Inst{Op: OpXor, Rd: 15, Ra: 15, Rb: 15}
	var m Machine
	if m.Run(a) == m.Run(b) {
		t.Error("checksum insensitive to a program change")
	}
}

func TestSuiteVerify(t *testing.T) {
	s := NewSuite(1, 8, 300)
	if len(s.Programs) != 8 || len(s.Golden) != 8 {
		t.Fatalf("suite sized wrong: %d/%d", len(s.Programs), len(s.Golden))
	}
	if i := s.Verify(); i != -1 {
		t.Errorf("clean suite failed verification at program %d", i)
	}
	for _, p := range s.Programs {
		if !fullCoverage(p) {
			t.Error("suite program without full coverage")
		}
	}
}

// TestUpsetVulnerabilityFactor: random single-bit register upsets are
// caught only when the corrupted state is architecturally live — the
// classic AVF observation. Mid-program upsets land in the 20–90% band
// (many registers are overwritten before contributing), which is
// exactly why the methodology insists on *checked* workloads rather
// than assuming every violation is visible.
func TestUpsetVulnerabilityFactor(t *testing.T) {
	s := NewSuite(2, 4, 300)
	caught, total := 0, 0
	for i := range s.Programs {
		for inst := 10; inst < 300; inst += 40 {
			for reg := uint8(1); reg < NumRegs; reg += 3 {
				total++
				if s.ChecksumCatches(i, inst, reg, uint(inst)%64) {
					caught++
				}
			}
		}
	}
	frac := float64(caught) / float64(total)
	if frac < 0.20 || frac > 0.90 {
		t.Errorf("mid-program upset catch rate %.0f%% outside the AVF band (%d/%d)",
			100*frac, caught, total)
	}
}

// TestLateUpsetsAreCaught: upsets just before the program ends sit in
// the final architectural state and the checksum catches nearly all of
// them.
func TestLateUpsetsAreCaught(t *testing.T) {
	s := NewSuite(2, 4, 300)
	caught, total := 0, 0
	for i := range s.Programs {
		last := s.ExecutedCount(i) - 1
		for reg := uint8(1); reg < NumRegs; reg++ {
			total++
			if s.ChecksumCatches(i, last, reg, uint(reg)) {
				caught++
			}
		}
	}
	if frac := float64(caught) / float64(total); frac < 0.9 {
		t.Errorf("late upset catch rate %.0f%% (%d/%d), want ≥90%%", 100*frac, caught, total)
	}
}

// TestCorruptedRunWithoutUpsetMatchesGolden: RunCorrupted with an
// unreachable upset point reproduces the golden checksum (the two
// interpreter bodies agree).
func TestCorruptedRunWithoutUpsetMatchesGolden(t *testing.T) {
	s := NewSuite(3, 4, 200)
	for i := range s.Programs {
		if got := s.RunCorrupted(i, 1<<30, 5, 3); got != s.Golden[i] {
			t.Errorf("program %d: interpreters disagree without an upset", i)
		}
	}
}

// TestInterpreterTerminates: branches only skip forward, so any
// generated program terminates — property-checked over random seeds.
func TestInterpreterTerminates(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := 50 + int(nRaw)
		p := Generate(seed, n)
		var m Machine
		m.Run(p)
		// Every retired instruction is one of the program's; the
		// executed count can be below n (skips) but never above.
		return m.Executed <= len(p.Code) && m.Executed > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	if OpAdd.String() != "add" || OpBranch.String() != "branch" {
		t.Error("opcode names wrong")
	}
	if Op(99).String() == "" {
		t.Error("unknown opcode has empty name")
	}
}

// TestExecutedCountMatchesFreshRun: the retired count NewSuite keeps
// from each golden run equals a fresh run's, for programs of several
// lengths and seeds.
func TestExecutedCountMatchesFreshRun(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		count, n int
	}{{1, 4, 400}, {7, 6, 50}, {42, 3, 1000}} {
		s := NewSuite(tc.seed, tc.count, tc.n)
		for i, p := range s.Programs {
			var m Machine
			m.Run(p)
			if got := s.ExecutedCount(i); got != m.Executed {
				t.Errorf("seed %d program %d: ExecutedCount %d, a fresh run retires %d", tc.seed, i, got, m.Executed)
			}
		}
	}
}
