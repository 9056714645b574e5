package manage

import (
	"fmt"

	"repro/internal/charact"
	"repro/internal/chip"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// Governor selects how aggressively the per-core CPM configurations are
// set before scheduling (the user-facing policy knob of Fig. 13).
type Governor int

// Governors.
const (
	// GovernorDefault programs each core at its test-time stress-test
	// limit (thread-worst equivalent): worst-case-verified reliability
	// with high performance. The paper's management scheme runs here.
	GovernorDefault Governor = iota
	// GovernorConservative restricts foreground scheduling to the
	// robust cores (those whose control loops tolerated every profiled
	// application without rollback) and adds a safety rollback
	// elsewhere. Best for unknown applications.
	GovernorConservative
	// GovernorAggressive programs, per scheduled application, the
	// core's most aggressive configuration known to run that
	// application correctly (from characterization profiling). Highest
	// performance, profiling-dependent safety — the paper sketches it
	// and defers evaluation; implemented here as the extension.
	GovernorAggressive
)

func (g Governor) String() string {
	switch g {
	case GovernorDefault:
		return "default"
	case GovernorConservative:
		return "conservative"
	case GovernorAggressive:
		return "aggressive"
	default:
		return fmt.Sprintf("governor(%d)", int(g))
	}
}

// conservativeRollback is the extra safety margin the conservative
// governor applies to non-robust cores.
const conservativeRollback = 2

// applyGovernor programs the machine's CPM configurations for the given
// governor. The aggressive governor needs the characterization report
// and the application being placed per core; the others ignore them.
func applyGovernor(m *chip.Machine, g Governor, dep *tuning.Deployment,
	rep *charact.Report, perCoreApp map[string]workload.Profile) error {
	switch g {
	case GovernorDefault:
		for _, cfg := range dep.Configs {
			if err := m.ProgramCPM(cfg.Core, cfg.Reduction); err != nil {
				return err
			}
		}
		return nil

	case GovernorConservative:
		for _, cfg := range dep.Configs {
			red := cfg.Reduction
			if !coreIsRobust(rep, cfg.Core) {
				red -= conservativeRollback
				if red < 0 {
					red = 0
				}
			}
			if err := m.ProgramCPM(cfg.Core, red); err != nil {
				return err
			}
		}
		return nil

	case GovernorAggressive:
		if rep == nil {
			return fmt.Errorf("manage: aggressive governor needs a characterization report")
		}
		for _, cfg := range dep.Configs {
			red := cfg.Reduction
			if app, ok := perCoreApp[cfg.Core]; ok {
				cr, found := rep.Core(cfg.Core)
				if !found {
					return fmt.Errorf("manage: no characterization for %s", cfg.Core)
				}
				if lim, ok := cr.AppLimit[app.Name]; ok {
					red = lim
				}
			}
			if err := m.ProgramCPM(cfg.Core, red); err != nil {
				return err
			}
		}
		return nil

	default:
		return fmt.Errorf("manage: unknown governor %v", g)
	}
}

// coreIsRobust reports whether characterization saw the core tolerate
// every profiled application at its uBench limit (zero rollback — the
// right-hand columns of Fig. 10). Without a report no core is
// considered robust.
func coreIsRobust(rep *charact.Report, label string) bool {
	if rep == nil {
		return false
	}
	cr, ok := rep.Core(label)
	if !ok {
		return false
	}
	for _, rb := range cr.AppRollbackMean {
		if rb > 0.05 {
			return false
		}
	}
	return true
}
