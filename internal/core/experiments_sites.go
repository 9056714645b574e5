package core

import (
	"fmt"

	"repro/internal/cpm"
	"repro/internal/report"
	"repro/internal/silicon"
	"repro/internal/units"
)

// ExtCPMSites reports each core's five CPM sites (Fig. 3: IFU, ISU,
// FXU, FPU, LLC): which site has the longest synthetic path — and hence
// reports the worst-of-five margin every cycle — and how much slack the
// other sites hold relative to it. The spatial spread is what lets a
// single per-core loop guard unit-level variation.
func (s *Suite) ExtCPMSites() (*report.Artifact, error) {
	t := &report.Table{
		Title:  "CPM site attribution (default configuration, idle supply)",
		Header: []string{"core", "reporting site", "site skews vs worst (ps)", "margin @4.6 GHz (units)"},
		Note:   "the worst of the five sites is reported every cycle; other sites sit a few ps behind",
	}
	for _, core := range s.M.Profile().AllCores() {
		mon := cpm.New(core)
		r := mon.Measure(units.MHz(4600).CycleTime(), silicon.VRef)
		skews := ""
		for i, sk := range core.SiteSkewPs {
			if i > 0 {
				skews += " "
			}
			skews += fmt.Sprintf("%s:%.1f", silicon.CPMSiteName[i], float64(sk))
		}
		t.AddRow(core.Label, silicon.CPMSiteName[r.WorstSite], skews, fmt.Sprintf("%d", r.Units))
	}
	return &report.Artifact{
		ID:      "ext-cpm-sites",
		Caption: "Five CPMs per core capture spatial variation; the worst site drives the loop",
		Tables:  []*report.Table{t},
	}, nil
}
