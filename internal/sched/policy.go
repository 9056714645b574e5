package sched

import (
	"repro/internal/chip"
	"repro/internal/workload"
)

// pickCore chooses the core index for the next job of the given
// class, or -1 when none is free.
func (s *Simulator) pickCore(running []*active, critical bool, p Policy) int {
	switch p {
	case PolicyManaged:
		if critical {
			// Fastest free core (deployment speed order).
			for _, i := range s.bySpeed {
				if running[i] == nil {
					return i
				}
			}
			return -1
		}
		// Background: slowest free core, keeping the fast ones for
		// critical arrivals.
		for k := len(s.bySpeed) - 1; k >= 0; k-- {
			if i := s.bySpeed[k]; running[i] == nil {
				return i
			}
		}
		return -1
	default:
		// Variation-blind: lowest free physical index.
		for i, a := range running {
			if a == nil {
				return i
			}
		}
		return -1
	}
}

// configureCore applies the policy's clocking to core i, which is
// about to run job.
func (s *Simulator) configureCore(i int, job Job, p Policy) error {
	core := s.cores[i]
	core.SetWorkload(job.Workload)
	core.SetGated(false)
	switch p {
	case PolicyStatic:
		core.SetMode(chip.ModeStatic)
		return core.SetPState(chip.PStateMax)
	case PolicyOndemand:
		// A dispatched job is 100% utilization: the stock ondemand
		// governor (Sec. VII-D) jumps to the top p-state immediately.
		core.SetMode(chip.ModeStatic)
		return core.SetPState(chip.PStateMax)
	default:
		return s.runATM(core)
	}
}

// runATM puts a core in ATM mode at its deployed CPM reduction.
func (s *Simulator) runATM(core *chip.Core) error {
	cfg, ok := s.dep.Config(core.Profile.Label)
	if !ok {
		return errNoConfig(core.Profile.Label)
	}
	core.SetMode(chip.ModeATM)
	return core.Monitor.Program(cfg.Reduction)
}

// idleCore returns a freed core to the idle workload (its clocking stays
// whatever the policy last set; throttling reconciliation follows).
// Under the ondemand policy the governor walks the idle core down the
// ladder one step per sample — scheduler events are far apart relative
// to governor sampling periods, so the sustained-idle fixpoint, the
// floor, is applied.
func (s *Simulator) idleCore(core *chip.Core, p Policy) error {
	core.SetWorkload(workload.Idle)
	if p == PolicyOndemand {
		return core.SetPState(chip.PStateMin)
	}
	return nil
}

// applyThrottling reconciles the managed policy's background throttling:
// while any critical job is resident on the chip, every core running a
// background job is pinned to the 4.2 GHz static p-state (freeing DC
// budget for the critical cores); when no critical job is resident,
// background cores get their full fine-tuned ATM speed back.
func (s *Simulator) applyThrottling(running []*active, p Policy) error {
	if p != PolicyManaged {
		return nil
	}
	criticalResident := false
	for _, a := range running {
		if a != nil && a.job.Class == ClassCritical {
			criticalResident = true
			break
		}
	}
	for i, a := range running {
		if a == nil || a.job.Class != ClassBackground {
			continue
		}
		core := s.cores[i]
		if criticalResident {
			// Count only real transitions: reconciliation blindly
			// reapplies the target mode on every dispatch.
			if core.Mode() != chip.ModeStatic {
				s.ob.thrOn.Inc()
			}
			core.SetMode(chip.ModeStatic)
			if err := core.SetPState(chip.PStateMax); err != nil {
				return err
			}
			continue
		}
		if core.Mode() != chip.ModeATM {
			s.ob.thrOff.Inc()
		}
		if err := s.runATM(core); err != nil {
			return err
		}
	}
	return nil
}

type errNoConfig string

func (e errNoConfig) Error() string { return "sched: no deployment config for " + string(e) }
