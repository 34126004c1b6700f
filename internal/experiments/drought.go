package experiments

import (
	"context"
	"fmt"

	"evop/internal/clock"
	"evop/internal/core"
	"evop/internal/scenario"
)

// E19Drought looks at the same land-use scenarios through the drought
// lens (the paper motivates EVOp with droughts as well as floods): the
// low-flow report per scenario over the standard forcing record.
func E19Drought() (*Table, error) {
	clk := clock.NewSimulated(epoch)
	cfg := core.DefaultConfig(clk)
	cfg.ForcingDays = 120
	obs, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("building observatory: %w", err)
	}
	t := &Table{
		ID:    "E19",
		Title: "Low-flow / drought impact by land-use scenario (Morland, 120-day record)",
		Columns: []string{
			"scenario", "Q95(mm/h)", "BFI", "droughts", "longest", "deficit(mm)",
		},
		Notes: []string{
			"droughts are spells below the baseline-independent Q90 of each run, pooled at 1 day",
			"afforestation damps the whole regime: recessions are slower, so low flows are higher and spells shorter",
		},
	}
	var baseQ95, affQ95 float64
	for _, sc := range scenario.All() {
		res, err := obs.RunLowFlowContext(context.Background(), "morland", sc.ID)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.ID, err)
		}
		s := res.Summary
		t.Rows = append(t.Rows, []string{
			sc.Name,
			fmt.Sprintf("%.4f", s.Q95),
			fmt.Sprintf("%.2f", s.BFI),
			fmt.Sprintf("%d", len(s.Droughts)),
			fmtDur(s.LongestDrought),
			fmt.Sprintf("%.2f", s.TotalDeficitMM),
		})
		switch sc.ID {
		case scenario.Baseline:
			baseQ95 = s.Q95
		case scenario.Afforestation:
			affQ95 = s.Q95
		}
	}
	if baseQ95 <= 0 || affQ95 <= 0 {
		return nil, fmt.Errorf("degenerate Q95 values: %w", ErrExperiment)
	}
	return t, nil
}
