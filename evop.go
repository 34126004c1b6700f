// Package evop is the public API of the Environmental Virtual Observatory
// pilot (EVOp) reproduction — a cloud-enabled virtual research space for
// environmental science, after Elkhatib et al., "Widening the Circle of
// Engagement Around Environmental Issues using Cloud-based Tools"
// (ICDCS 2019).
//
// The library assembles, from scratch and on the standard library only:
//
//   - a simulated hybrid cloud (private fixed-capacity + elastic public)
//     with a cross-cloud façade, a Resource Broker and a Load Balancer
//     that cloudbursts, detects malfunctioning instances and migrates
//     user sessions;
//   - a hydrological modelling stack: TOPMODEL and a FUSE-style model
//     ensemble over synthetic terrain (DEM → flow routing → topographic
//     index) and stochastic weather, with Monte Carlo calibration and
//     GLUE uncertainty bounds;
//   - standards-compliant service interfaces: OGC WPS and SOS over XML, a
//     stateless REST asset API, and an RFC 6455 WebSocket channel for
//     session push;
//   - the LEFT flooding exemplar: live sensor feeds, a map marker layer,
//     a multimodal sensor+webcam widget and a four-scenario modelling
//     widget;
//   - a replayable DAG workflow engine (the paper's future-work feature).
//
// # Quickstart
//
//	clk := evop.NewSimulatedClock(time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC))
//	obs, err := evop.New(evop.DefaultConfig(clk))
//	if err != nil { ... }
//	obs.Start()
//	defer obs.Stop()
//	res, err := obs.RunModelContext(ctx, evop.RunRequest{
//		CatchmentID: "morland", Model: "topmodel", ScenarioID: "compaction",
//	})
//
// To serve the full web portal over HTTP:
//
//	p, err := evop.NewPortal(obs)
//	http.ListenAndServe(":8080", p)
//
// or, for graceful shutdown on ctx cancellation (in-flight requests
// finish, async WPS executions drain, background loops stop):
//
//	p.ListenAndServeContext(ctx, ":8080")
//
// Model runs take a context and stop promptly when it ends, and the
// portal passes each request's context through, so a disconnected
// browser stops burning CPU.
//
// The deeper building blocks (the TOPMODEL engine, the calibration
// toolkit, the cloud simulation, the WebSocket implementation) live in
// internal packages and are re-exported here only where a downstream user
// needs them; see the package documentation under internal/ for the full
// inventory.
package evop

import (
	"time"

	"evop/internal/clock"
	"evop/internal/core"
	"evop/internal/hydro/topmodel"
	"evop/internal/portal"
	"evop/internal/scenario"
	"evop/internal/weather"
)

// Observatory is the assembled EVOp platform: catchments, sensors, model
// library, hybrid cloud with broker and load balancer, and the WPS/SOS/
// REST service layers.
type Observatory = core.Observatory

// Config parameterises New.
type Config = core.Config

// RunRequest describes an on-demand model run (the LEFT widget request).
type RunRequest = core.RunRequest

// RunResult is a completed model run: hydrograph and summary statistics.
type RunResult = core.RunResult

// TOPMODELParams are TOPMODEL's calibration parameters, exposed so
// callers can drive the widget's parameter sliders.
type TOPMODELParams = topmodel.Params

// DesignStorm is a synthetic storm event injectable into any run.
type DesignStorm = weather.DesignStorm

// NationalLoads is one scenario's pollutant export aggregated across
// catchments; see Observatory.RunNationalQuality.
type NationalLoads = core.NationalLoads

// Scenario is one land-use/management preset of the LEFT widget.
type Scenario = scenario.Scenario

// Portal is the EVOp web portal; it implements http.Handler.
type Portal = portal.Portal

// Clock abstracts time; see NewSimulatedClock and NewRealClock.
type Clock = clock.Clock

// SimulatedClock is a deterministic clock driven by Advance, used by the
// tests and every infrastructure experiment.
type SimulatedClock = clock.Simulated

// New assembles an observatory over the three LEFT study catchments
// (Morland, Tarland, Machynlleth). Call Start to launch the sensor and
// load-balancer loops, and Stop when done.
func New(cfg Config) (*Observatory, error) { return core.New(cfg) }

// DefaultConfig returns an experiment-ready configuration on the given
// clock.
func DefaultConfig(clk Clock) Config { return core.DefaultConfig(clk) }

// NewPortal builds the HTTP portal over an observatory.
func NewPortal(obs *Observatory) (*Portal, error) { return portal.New(obs) }

// NewSimulatedClock returns a deterministic clock starting at start.
func NewSimulatedClock(start time.Time) *SimulatedClock { return clock.NewSimulated(start) }

// NewRealClock returns a Clock backed by the system wall clock.
func NewRealClock() Clock { return clock.NewReal() }

// Scenarios returns the four LEFT land-use scenarios in widget order.
func Scenarios() []Scenario { return scenario.All() }

// DefaultTOPMODELParams returns the calibrated baseline parameter set.
func DefaultTOPMODELParams() TOPMODELParams { return topmodel.DefaultParams() }
