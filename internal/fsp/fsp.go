// Package fsp emulates the flexible service processor (FSP) interface
// through which the paper fine-tunes ATM: "In the POWER7+, this is done
// by sending specialized commands to the service processor"
// (Sec. III-A). On the real machine these are privileged SCOM register
// accesses mediated by firmware; here the same two layers exist in
// software:
//
//   - a register map (registers.go): per-core CPM control, mode and
//     p-state registers plus read-only telemetry (settled frequency,
//     chip power/voltage/temperature), addressed like SCOMs;
//   - a line-oriented command protocol (session.go): the operator-level
//     commands a test-floor script issues (getscom/putscom and the
//     convenience verbs the paper's procedures need), usable over any
//     io.Reader/io.Writer pair.
//
// cmd/atmfsp serves the protocol on stdio so the deployment procedure
// can literally be driven by a shell script, as it would be on the test
// floor.
package fsp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/chip"
	"repro/internal/units"
)

// Register addresses are synthesized per core from a base; the layout
// mimics a SCOM-style address space: chip select in the high bits, core
// select in the middle, function in the low bits.
const (
	// Function codes within a core's register block.
	regCPMReduction = 0x0 // RW: CPM inserted-delay reduction
	regMode         = 0x1 // RW: 0 = static margin, 1 = ATM
	regPState       = 0x2 // RW: p-state frequency in MHz
	regGated        = 0x3 // RW: 1 = power-gated
	regFreq         = 0x8 // RO: settled frequency (MHz)
	regPower        = 0x9 // RO: core power (mW)
	regMargin       = 0xA // RO: CPM slack margin (milli-sigma, two's complement)

	// Chip-level registers (core field = 0xF).
	regChipPower  = 0x0 // RO: chip power (mW)
	regChipVolt   = 0x1 // RO: on-die supply (mV)
	regChipTemp   = 0x2 // RO: junction temperature (m°C)
	regChipVNom   = 0x3 // RO: VRM setpoint (mV)
	regChipInBudg = 0x4 // RO: 1 = within thermal envelope
)

// Addr is a synthetic SCOM address.
type Addr uint32

// MakeCoreAddr builds the address of a per-core register.
func MakeCoreAddr(chipIdx, coreIdx, fn int) Addr {
	return Addr(0x8000_0000 | uint32(chipIdx)<<16 | uint32(coreIdx)<<8 | uint32(fn))
}

// MakeChipAddr builds the address of a chip-level register.
func MakeChipAddr(chipIdx, fn int) Addr {
	return Addr(0x8000_0000 | uint32(chipIdx)<<16 | 0xF<<8 | uint32(fn))
}

func (a Addr) chip() int { return int(a>>16) & 0xFF }
func (a Addr) core() int { return int(a>>8) & 0xFF }
func (a Addr) fn() int   { return int(a) & 0xFF }

// Controller is the firmware layer: it owns a machine and exposes the
// register map. All mutating accesses are validated the way firmware
// validates SCOM writes — a bad value errors out rather than bricking
// the model.
type Controller struct {
	m *chip.Machine
	// stale marks that a mutating register write occurred since the
	// last telemetry solve.
	stale bool
	last  chip.State

	// readFault, when non-nil, may fail a read-only telemetry register
	// access — the hook internal/fault uses to model transient sensor
	// and SCOM-bus upsets. Control registers (the RW set) are never
	// faulted: on the real machine those go through a checked firmware
	// write path, while telemetry reads are best-effort.
	readFault ReadFault
}

// ReadFault is an injection hook consulted before each telemetry
// register read. A non-nil return aborts the read; errors wrapping
// chip.ErrTransient are retryable and reported in-band with a
// "transient" prefix so operator clients know to retry.
type ReadFault func(a Addr) error

// SetReadFault arms (or, with nil, disarms) the telemetry fault hook.
func (c *Controller) SetReadFault(f ReadFault) { c.readFault = f }

// faultRead consults the injection hook for a telemetry read of a.
func (c *Controller) faultRead(a Addr) error {
	if c.readFault == nil {
		return nil
	}
	return c.readFault(a)
}

// NewController wraps a machine.
func NewController(m *chip.Machine) *Controller {
	return &Controller{m: m, stale: true}
}

// Machine returns the controlled machine.
func (c *Controller) Machine() *chip.Machine { return c.m }

// coreAt resolves a register address to a core.
func (c *Controller) coreAt(a Addr) (*chip.Core, error) {
	ci, ki := a.chip(), a.core()
	if ci < 0 || ci >= len(c.m.Chips) {
		return nil, fmt.Errorf("fsp: no chip %d at %#x", ci, uint32(a))
	}
	ch := c.m.Chips[ci]
	if ki < 0 || ki >= len(ch.Cores) {
		return nil, fmt.Errorf("fsp: no core %d on chip %d at %#x", ki, ci, uint32(a))
	}
	return ch.Cores[ki], nil
}

// telemetry solves the machine lazily: reads of RO registers reflect the
// steady state after the most recent writes.
func (c *Controller) telemetry() (chip.State, error) {
	if c.stale {
		st, err := c.m.Solve()
		if err != nil {
			return chip.State{}, err
		}
		c.last = st
		c.stale = false
	}
	return c.last, nil
}

// Getscom reads a register.
func (c *Controller) Getscom(a Addr) (uint64, error) {
	if a.core() == 0xF {
		return c.getChip(a)
	}
	core, err := c.coreAt(a)
	if err != nil {
		return 0, err
	}
	switch a.fn() {
	case regCPMReduction:
		return uint64(core.Reduction()), nil
	case regMode:
		if core.Mode() == chip.ModeATM {
			return 1, nil
		}
		return 0, nil
	case regPState:
		return uint64(core.PState()), nil
	case regGated:
		if core.Gated() {
			return 1, nil
		}
		return 0, nil
	case regFreq:
		if err := c.faultRead(a); err != nil {
			return 0, err
		}
		st, err := c.telemetry()
		if err != nil {
			return 0, err
		}
		cs, err := st.CoreState(core.Profile.Label)
		if err != nil {
			return 0, err
		}
		return uint64(cs.Freq), nil
	case regPower:
		if err := c.faultRead(a); err != nil {
			return 0, err
		}
		st, err := c.telemetry()
		if err != nil {
			return 0, err
		}
		cs, err := st.CoreState(core.Profile.Label)
		if err != nil {
			return 0, err
		}
		return uint64(float64(cs.Power) * 1000), nil
	case regMargin:
		if err := c.faultRead(a); err != nil {
			return 0, err
		}
		return uint64(marginMilliSigma(core)), nil
	default:
		return 0, fmt.Errorf("fsp: unknown core register %#x", a.fn())
	}
}

func (c *Controller) getChip(a Addr) (uint64, error) {
	ci := a.chip()
	if ci < 0 || ci >= len(c.m.Chips) {
		return 0, fmt.Errorf("fsp: no chip %d", ci)
	}
	if err := c.faultRead(a); err != nil {
		return 0, err
	}
	label := c.m.Chips[ci].Profile.Label
	st, err := c.telemetry()
	if err != nil {
		return 0, err
	}
	cs, err := st.ChipState(label)
	if err != nil {
		return 0, err
	}
	switch a.fn() {
	case regChipPower:
		return uint64(float64(cs.Power) * 1000), nil
	case regChipVolt:
		return uint64(cs.Supply.Millivolts()), nil
	case regChipTemp:
		return uint64(float64(cs.TempC) * 1000), nil
	case regChipVNom:
		return uint64(c.m.Chips[ci].PDN.VNom.Millivolts()), nil
	case regChipInBudg:
		if cs.InBudget {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("fsp: unknown chip register %#x", a.fn())
	}
}

// Putscom writes a register. Read-only registers reject writes.
func (c *Controller) Putscom(a Addr, v uint64) error {
	if a.core() == 0xF {
		return fmt.Errorf("fsp: chip register %#x is read-only", a.fn())
	}
	core, err := c.coreAt(a)
	if err != nil {
		return err
	}
	switch a.fn() {
	case regCPMReduction:
		if err := core.Monitor.Program(int(v)); err != nil {
			return err
		}
	case regMode:
		switch v {
		case 0:
			core.SetMode(chip.ModeStatic)
		case 1:
			core.SetMode(chip.ModeATM)
		default:
			return fmt.Errorf("fsp: mode %d not in {0,1}", v)
		}
	case regPState:
		if err := core.SetPState(units.MHz(v)); err != nil {
			return err
		}
	case regGated:
		switch v {
		case 0:
			core.SetGated(false)
		case 1:
			core.SetGated(true)
		default:
			return fmt.Errorf("fsp: gate %d not in {0,1}", v)
		}
	case regFreq, regPower, regMargin:
		return fmt.Errorf("fsp: register %#x is read-only", a.fn())
	default:
		return fmt.Errorf("fsp: unknown core register %#x", a.fn())
	}
	c.stale = true
	return nil
}

// marginMilliSigma computes a core's CPM slack margin register value:
// silicon.CoreProfile.MarginSigmas at the core's current reduction, in
// milli-sigmas, two's-complement encoded so an aged core can report a
// negative margin. A freshly fine-tuned core sits at ≥ +4500, a core
// whose silicon drifted past its envelope goes negative.
func marginMilliSigma(core *chip.Core) int64 {
	sigma, err := core.Profile.MarginSigmas(core.Reduction())
	if err != nil {
		// The programmed reduction was validated on the way in; an error
		// here is unreachable, but a register read must not panic.
		return 0
	}
	return int64(math.Round(sigma * 1000))
}

// Invalidate marks the cached telemetry solve stale. Callers that
// mutate the machine's environment out of band — the lifetime drift
// overlay rewriting silicon parameters, ambient temperature, or VRM
// constants under the controller — must invalidate so the next
// telemetry read re-solves against the mutated world.
func (c *Controller) Invalidate() { c.stale = true }

// CoreAddrByLabel resolves a core label ("P0C3") to its register block
// base parameters.
func (c *Controller) CoreAddrByLabel(label string) (chipIdx, coreIdx int, err error) {
	for ci, ch := range c.m.Chips {
		for ki, core := range ch.Cores {
			if core.Profile.Label == label {
				return ci, ki, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("fsp: no core %q", label)
}

// Labels returns every core label in address order.
func (c *Controller) Labels() []string {
	var out []string
	for _, ch := range c.m.Chips {
		for _, core := range ch.Cores {
			out = append(out, core.Profile.Label)
		}
	}
	sort.Strings(out)
	return out
}
