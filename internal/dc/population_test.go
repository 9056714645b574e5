package dc

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rng"
)

// idleDraws is the largest live idle draw of a chip, a chassis and a
// rack in one intake.
type idleDraws struct{ chip, chassis, rack float64 }

// idleOf measures o's intake by a one-tick run with derived caps,
// summing each level in autoCaps' order.
func idleOf(t *testing.T, o Options) idleDraws {
	t.Helper()
	o.Ticks = 1
	o.RackCapW, o.ChassisCapW, o.ChipCapW = 0, 0, 0
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o = o.withDefaults()
	var idle idleDraws
	for r := 0; r < o.Racks; r++ {
		rackW := 0.0
		for c := 0; c < o.ChassisPerRack; c++ {
			chassisW := 0.0
			for s := 0; s < o.ChipsPerChassis; s++ {
				if ch := res.Chips[(r*o.ChassisPerRack+c)*o.ChipsPerChassis+s]; !ch.Quarantined {
					chassisW += ch.IdleW
					idle.chip = max(idle.chip, ch.IdleW)
				}
			}
			idle.chassis = max(idle.chassis, chassisW)
			rackW += chassisW
		}
		idle.rack = max(idle.rack, rackW)
	}
	return idle
}

// popGen draws campaign options for the population properties: small
// topologies, a few silicon seeds, intakes with and without a broken
// core, ki from 0.05 to 100, every ops preset and random event
// counts. The idle draws of each intake are measured once and
// memoized.
type popGen struct {
	t    *testing.T
	src  *rng.Source
	idle map[string]idleDraws
}

func newPopGen(t *testing.T, label string) *popGen {
	return &popGen{t: t, src: rng.New(1).Split(label), idle: map[string]idleDraws{}}
}

// options draws one configuration, caps derived, and returns it with
// its intake's idle draws.
func (g *popGen) options() (Options, idleDraws) {
	topos := [][3]int{{1, 1, 2}, {1, 2, 2}, {2, 1, 2}, {1, 2, 3}}
	tp := topos[g.src.Intn(len(topos))]
	o := Options{Racks: tp[0], ChassisPerRack: tp[1], ChipsPerChassis: tp[2], SiliconStart: uint64(1 + 8*g.src.Intn(2))}
	if g.src.Intn(4) == 0 {
		o.FaultProfile, o.FaultSeed = "test-floor,broken=1", 7
	}
	key := fmt.Sprintf("%v/%d/%s", tp, o.SiliconStart, o.FaultProfile)
	idle, ok := g.idle[key]
	if !ok {
		idle = idleOf(g.t, o)
		g.idle[key] = idle
	}

	chips := o.Racks * o.ChassisPerRack * o.ChipsPerChassis
	o.Tenants = chips * (1 + g.src.Intn(8))
	o.Ticks = 8 + g.src.Intn(40)
	o.Seed = uint64(1 + g.src.Intn(4))
	o.KI = 0.05 * math.Pow(2000, g.src.Float64())
	presets := append([]string{"", "none"}, fault.SpecPresetNames(opsPresets)...)
	if k := g.src.Intn(len(presets) + 2); k < len(presets) {
		o.OpsFaultProfile = presets[k]
	} else {
		o.OpsFaultProfile = fmt.Sprintf("chip-deaths=%d,link-flaps=%d,brownouts=%d,rack-brownouts=%d,thermals=%d",
			g.src.Intn(2), g.src.Intn(3), g.src.Intn(2), g.src.Intn(2), g.src.Intn(3))
	}
	o.OpsFaultSeed = uint64(1 + g.src.Intn(5))
	return o, idle
}

// capAround draws a cap for a level with idle draw idleW: derived
// (0) half the time, otherwise from 0.8× to 1.6× the idle draw.
func (g *popGen) capAround(idleW float64) float64 {
	if g.src.Intn(2) == 0 {
		return 0
	}
	return idleW * (0.8 + 0.8*g.src.Float64())
}

// TestPopulationViolationRule checks the one violation rule across
// generated configurations: a campaign with a cap below its level's
// idle draw is rejected before the first tick, and every other one,
// under any ops profile, reports no violation.
func TestPopulationViolationRule(t *testing.T) {
	g := newPopGen(t, "dc/population/violations")
	rejected, accepted := 0, 0
	for n := 0; n < 96; n++ {
		o, idle := g.options()
		o.ChipCapW = g.capAround(idle.chip)
		o.ChassisCapW = g.capAround(idle.chassis)
		o.RackCapW = g.capAround(idle.rack)
		below := (o.ChipCapW > 0 && o.ChipCapW < idle.chip) ||
			(o.ChassisCapW > 0 && o.ChassisCapW < idle.chassis) ||
			(o.RackCapW > 0 && o.RackCapW < idle.rack)
		res, err := Run(o)
		switch {
		case below:
			rejected++
			if err == nil || !strings.Contains(err.Error(), "idle draw") {
				t.Errorf("config %d %+v: a cap below idle (%+v) ran: err = %v", n, o, idle, err)
			}
		case err != nil:
			t.Errorf("config %d %+v: %v", n, o, err)
		default:
			accepted++
			if res.Budget.Violations != 0 {
				t.Errorf("config %d %+v: %d violation(s) with every cap at or above idle", n, o, res.Budget.Violations)
			}
		}
	}
	if rejected < 5 || accepted < 5 {
		t.Fatalf("population drew %d rejected and %d accepted configurations; both need at least 5", rejected, accepted)
	}
}

// TestPopulationEmptyOpsIsIdentity checks that every empty ops profile
// is the same campaign: "", "none" and a spec that sets only event
// shapes give byte-identical canonical JSON and obs snapshots, whatever
// the ops seed.
func TestPopulationEmptyOpsIsIdentity(t *testing.T) {
	g := newPopGen(t, "dc/population/empty-ops")
	for n := 0; n < 6; n++ {
		o, _ := g.options()
		var ref []byte
		for _, profile := range []string{"", "none", "flap-ticks=9,grace=1,readmit=7,brownout-frac=0.3,thermal-frac=0.2"} {
			o.OpsFaultProfile = profile
			o.OpsFaultSeed++
			o.Obs = obs.NewRegistry()
			res, err := Run(o)
			if err != nil {
				t.Fatalf("config %d, profile %q: %v", n, profile, err)
			}
			if res.Ops != nil || res.Events != nil {
				t.Fatalf("config %d, profile %q: an empty profile reported ops or events", n, profile)
			}
			got := append(canon(t, res), o.Obs.SnapshotJSON()...)
			if ref == nil {
				ref = got
				continue
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("config %d, profile %q: output differs from the profile-free run", n, profile)
			}
		}
	}
}
