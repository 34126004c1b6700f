// National: the paper's second motivating question — "what could be done
// to reduce diffuse pollution affecting the North Sea?" — answered at the
// multi-catchment scale. The example aggregates water-quality exports
// from all three study catchments under each land-management policy and
// reports which policy most reduces the total sediment and phosphorus
// load reaching the sea.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"evop"
	"evop/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatal("national: ", err)
	}
}

func run() error {
	clk := evop.NewSimulatedClock(time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC))
	cfg := evop.DefaultConfig(clk)
	cfg.ForcingDays = 90
	obs, err := evop.New(cfg)
	if err != nil {
		return fmt.Errorf("assembling observatory: %w", err)
	}
	obs.Start()
	defer obs.Stop()

	catchments := []string{"morland", "tarland", "machynlleth"}
	fmt.Printf("diffuse pollution, 90-day record, %d catchments\n\n", len(catchments))

	// Every (catchment, scenario) run fans out across the observatory's
	// shared compute pool; totals are identical to the sequential loop.
	totals, err := obs.RunNationalQualityContext(context.Background(), catchments, nil)
	if err != nil {
		return fmt.Errorf("national quality sweep: %w", err)
	}

	base := totals[scenario.Baseline]
	fmt.Printf("%-28s %12s %14s %12s\n", "policy (applied everywhere)", "sediment(t)", "phosphorus(kg)", "vs baseline")
	fmt.Println(strings.Repeat("-", 70))
	for _, sc := range scenario.All() {
		agg := totals[sc.ID]
		rel := ""
		if sc.ID != scenario.Baseline {
			rel = fmt.Sprintf("%+.0f%% P", (agg.Total.PhosphorusKg/base.Total.PhosphorusKg-1)*100)
		}
		fmt.Printf("%-28s %12.1f %14.1f %12s\n", sc.Name, agg.Total.SedimentTonnes, agg.Total.PhosphorusKg, rel)
	}
	fmt.Println()

	// The policy answer.
	bestID, bestP := scenario.Baseline, base.Total.PhosphorusKg
	for id, agg := range totals {
		if agg.Total.PhosphorusKg < bestP {
			bestID, bestP = id, agg.Total.PhosphorusKg
		}
	}
	best, err := scenario.Get(bestID)
	if err != nil {
		return err
	}
	fmt.Printf("largest phosphorus reduction: %q (%.0f kg vs %.0f kg baseline, %.0f%% lower)\n",
		best.Name, bestP, base.Total.PhosphorusKg, (1-bestP/base.Total.PhosphorusKg)*100)
	fmt.Println("\n" + best.Description)
	return nil
}
