package sim

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/metrics"
)

// Result is the outcome of simulating one program: the application-level
// metrics (run time, reliability) and device-level metrics (heating,
// operation counts) that the paper's evaluation reports.
// The JSON tags define the stable wire format used by the sweep service
// and any downstream tooling; times keep their unit suffix in the key.
type Result struct {
	// Name and DeviceName identify the run.
	Name       string `json:"name"`
	DeviceName string `json:"device"`

	// TotalTime is the makespan in µs.
	TotalTime float64 `json:"total_time_us"`
	// ComputeTime and CommTime attribute the makespan to computation vs
	// communication: an instant counts as compute when at least one gate
	// or measurement is executing, as communication when only shuttling
	// or reordering is in flight, and as idle otherwise (Figure 6b).
	ComputeTime float64 `json:"compute_time_us"`
	CommTime    float64 `json:"comm_time_us"`
	IdleTime    float64 `json:"idle_time_us"`
	// BusyCompute and BusyComm sum raw op durations per category
	// (they exceed the makespan when ops overlap).
	BusyCompute float64 `json:"busy_compute_us"`
	BusyComm    float64 `json:"busy_comm_us"`

	// LogFidelity is the natural log of the application fidelity; it is
	// exact even when Fidelity underflows to zero.
	LogFidelity float64 `json:"log_fidelity"`
	// Fidelity is the product of all operation fidelities (§V.B).
	Fidelity float64 `json:"fidelity"`

	// MSGates counts executed MS-class gate instances (program two-qubit
	// gates plus the MS gates inside GS swaps).
	MSGates int `json:"ms_gates"`
	// MeanMotionalError and MeanBackgroundError are the average per-MS-
	// gate contributions of the two Eq. 1 error terms (Figure 6g).
	MeanMotionalError   float64 `json:"mean_motional_error"`
	MeanBackgroundError float64 `json:"mean_background_error"`
	// OneQGates and Measurements count executed 1Q ops and readouts.
	OneQGates    int `json:"one_q_gates"`
	Measurements int `json:"measurements"`
	// MeanOneQError is the average per-1Q-gate error.
	MeanOneQError float64 `json:"mean_one_q_error"`

	// MaxMotionalEnergy is the largest chain energy observed on any trap
	// at any time, in quanta (Figure 6f); MaxMotionalPerTrap breaks it
	// out by trap.
	MaxMotionalEnergy  float64   `json:"max_motional_energy_quanta"`
	MaxMotionalPerTrap []float64 `json:"max_motional_per_trap_quanta"`

	// Shuttling activity counters.
	Splits            int `json:"splits"`
	Merges            int `json:"merges"`
	Moves             int `json:"moves"`
	JunctionCrossings int `json:"junction_crossings"`
	IonSwaps          int `json:"ion_swaps"`
	// LinkTransits counts photonic interconnect traversals; zero on
	// single-module devices and omitted from the wire format there, which
	// keeps pre-photonic results (including the golden determinism grid)
	// byte-identical.
	LinkTransits int `json:"link_transits,omitempty"`
	// GSSwaps counts gate-based reorder operations.
	GSSwaps int `json:"gs_swaps"`

	// TotalWaitTime sums, over all ops, the time spent ready but queued
	// for a busy resource (µs) — the congestion the compiler's
	// prioritize-earlier-gates policy arbitrates. MaxWaitTime is the
	// largest single-op wait.
	TotalWaitTime float64 `json:"total_wait_time_us"`
	MaxWaitTime   float64 `json:"max_wait_time_us"`

	// QEC metrics, attached post-simulation for surface-code workloads
	// (see AttachQEC) and absent from the wire format otherwise — the
	// omitempty tags keep every non-QEC result, including the golden
	// determinism grid, byte-identical to its pre-QEC encoding.
	//
	// CodeDistance and QECRounds echo the workload's code distance and
	// syndrome-extraction round count; LogicalErrorRate is the estimated
	// probability of a logical error over the full run, derived from the
	// simulated physical fidelity via the surface-code threshold ansatz
	// (metrics.LogicalErrorRate).
	CodeDistance     int     `json:"code_distance,omitempty"`
	QECRounds        int     `json:"qec_rounds,omitempty"`
	LogicalErrorRate float64 `json:"logical_error_rate,omitempty"`
}

// PhysicalErrorRate is the mean per-operation physical error implied by
// the fidelity product: 1 − exp(LogFidelity/ops) over all executed
// gates and measurements. It is exact even when Fidelity underflows.
func (r *Result) PhysicalErrorRate() float64 {
	ops := r.MSGates + r.OneQGates + r.Measurements
	if ops == 0 {
		return 0
	}
	return -math.Expm1(r.LogFidelity / float64(ops))
}

// AttachQEC marks the result as a distance-d, rounds-round surface-code
// workload and derives its logical-error estimate from the simulated
// physical error rate. The toolflow calls it for Surface@d points after
// simulation; results of other workloads never carry QEC fields.
func (r *Result) AttachQEC(d, rounds int) {
	r.CodeDistance = d
	r.QECRounds = rounds
	r.LogicalErrorRate = metrics.LogicalErrorRate(r.PhysicalErrorRate(), d, rounds)
}

// TotalSeconds returns the makespan in seconds (the unit of the paper's
// time plots).
func (r *Result) TotalSeconds() float64 { return r.TotalTime * 1e-6 }

// ComputeSeconds and CommSeconds return the attributed times in seconds.
func (r *Result) ComputeSeconds() float64 { return r.ComputeTime * 1e-6 }

// CommSeconds returns the communication-attributed time in seconds.
func (r *Result) CommSeconds() float64 { return r.CommTime * 1e-6 }

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s on %s: time=%.4fs (compute %.4fs, comm %.4fs) fidelity=%.4g maxE=%.1f quanta",
		r.Name, r.DeviceName, r.TotalSeconds(), r.ComputeSeconds(), r.CommSeconds(),
		r.Fidelity, r.MaxMotionalEnergy)
}

// result assembles the Result after the event loop has drained.
func (e *engine) result() *Result {
	r := &Result{
		Name:        e.prog.Name,
		DeviceName:  e.prog.DeviceName,
		LogFidelity: e.logFidelity,
		Fidelity:    math.Exp(e.logFidelity),
		// Completions pop in time order, so the final clock is the
		// makespan.
		TotalTime:          e.now,
		MSGates:            e.msGates,
		OneQGates:          e.oneQGates,
		Measurements:       e.measures,
		MaxMotionalEnergy:  e.tracker.MaxEnergy(),
		MaxMotionalPerTrap: e.tracker.MaxEnergyPerTrap(),
		BusyCompute:        e.categoryBusy[isa.CatCompute],
		BusyComm:           e.categoryBusy[isa.CatComm],
		LinkTransits:       e.linkTransits,
		GSSwaps:            e.gsSwaps,
	}
	r.Splits, r.Merges, r.Moves, r.JunctionCrossings, r.IonSwaps = e.tracker.Counts()
	if e.msGates > 0 {
		r.MeanMotionalError = e.sumMotional / float64(e.msGates)
		r.MeanBackgroundError = e.sumBackground / float64(e.msGates)
	}
	if e.oneQGates > 0 {
		r.MeanOneQError = e.sumOneQError / float64(e.oneQGates)
	}
	// Summed in op-ID order: a different order would change the sum's
	// low bits.
	for i, start := range e.startTime {
		wait := start - e.readyTime[i]
		r.TotalWaitTime += wait
		if wait > r.MaxWaitTime {
			r.MaxWaitTime = wait
		}
	}
	// Nothing runs after the last completion, so the rest of the makespan
	// (if any) is idle.
	e.advance()
	r.ComputeTime, r.CommTime, r.IdleTime = e.computeT, e.commT, e.idleT
	return r
}
