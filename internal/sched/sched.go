// Package sched is the policy layer between the performance model and the
// runtime: it derives a checkpoint cadence from system parameters (Daly's
// optimum over the local commit time, §6.1.3) and drives a cluster of
// application ranks through a failure trace — stepping, checkpointing on
// cadence, injecting failures, and recovering — the role SCR's scheduler
// plays in the paper's multilevel ecosystem.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ndpcr/internal/cluster"
	"ndpcr/internal/daly"
	"ndpcr/internal/model"
	"ndpcr/internal/node"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/trace"
	"ndpcr/internal/units"
)

// Policy is a derived checkpoint schedule.
type Policy struct {
	// LocalInterval is the useful-compute time between local checkpoints.
	LocalInterval units.Seconds
	// HostIOEvery is the locally:I/O ratio for host-written I/O
	// checkpoints; zero when the NDP handles I/O draining.
	HostIOEvery int
}

// Derive computes the policy for a parameter set: Daly's optimal local
// interval (unless pinned) and, for host-driven multilevel, the optimal
// locally:I/O ratio.
func Derive(p model.Params, ndp bool) (Policy, error) {
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	interval := p.LocalInterval
	if interval <= 0 {
		tau, err := daly.OptimalInterval(p.DeltaLocal(), p.MTTI)
		if err != nil {
			return Policy{}, err
		}
		interval = tau
	}
	pol := Policy{LocalInterval: interval}
	if !ndp {
		ratio, _, err := model.OptimalRatio(p, 0)
		if err != nil {
			return Policy{}, err
		}
		pol.HostIOEvery = ratio
	}
	return pol, nil
}

// StepsPerCheckpoint converts the policy's time interval into an
// application-step cadence given the cost of one step.
func (p Policy) StepsPerCheckpoint(stepDuration units.Seconds) (int, error) {
	if stepDuration <= 0 {
		return 0, errors.New("sched: step duration must be positive")
	}
	n := int(math.Round(float64(p.LocalInterval) / float64(stepDuration)))
	if n < 1 {
		n = 1
	}
	return n, nil
}

// Runner is a steppable, checkpointable application rank.
type Runner interface {
	cluster.Rank
	// Step advances the rank by one application step.
	Step() error
}

// Manager drives runners under a cluster with a failure schedule.
type Manager struct {
	cluster *cluster.Cluster
	runners []Runner
	// every is the step cadence between coordinated checkpoints.
	every int
	// stepDuration is the virtual wall time one step represents; failure
	// events are matched against the virtual clock.
	stepDuration units.Seconds
}

// NewManager assembles a manager. The cluster must have been built over
// the same runners (as cluster.Rank values).
func NewManager(c *cluster.Cluster, runners []Runner, every int, stepDuration units.Seconds) (*Manager, error) {
	if c == nil {
		return nil, errors.New("sched: cluster is required")
	}
	if len(runners) == 0 || len(runners) != c.Size() {
		return nil, fmt.Errorf("sched: %d runners vs %d cluster ranks", len(runners), c.Size())
	}
	if every < 1 {
		return nil, errors.New("sched: checkpoint cadence must be >= 1 step")
	}
	if stepDuration <= 0 {
		return nil, errors.New("sched: step duration must be positive")
	}
	return &Manager{cluster: c, runners: runners, every: every, stepDuration: stepDuration}, nil
}

// Report summarizes a managed run.
type Report struct {
	// StepsCompleted is the final application step (== the requested
	// total on success).
	StepsCompleted int
	// StepsExecuted counts every step executed, including re-runs.
	StepsExecuted int
	// Checkpoints is the number of coordinated checkpoints taken.
	Checkpoints int
	// Recoveries counts successful recoveries, split by the slowest level
	// any rank needed.
	Recoveries        int
	PartnerRecoveries int
	IORecoveries      int
	// VirtualTime is the simulated wall-clock at completion (compute time
	// only; checkpoint costs are the runtime's to model via pacing).
	VirtualTime units.Seconds
}

// RerunSteps returns the wasted step count.
func (r Report) RerunSteps() int { return r.StepsExecuted - r.StepsCompleted }

// Run executes totalSteps application steps, checkpointing every
// `every` steps and injecting the scheduled failures: when a failure event
// fires, the named rank's node is failed and the whole cluster recovers to
// the restart line, re-executing lost steps. All ranks step in lockstep
// (coordinated BSP-style execution, as the paper's MPI applications do).
func (m *Manager) Run(totalSteps int, failures []trace.Event) (Report, error) {
	if totalSteps < 1 {
		return Report{}, errors.New("sched: totalSteps must be >= 1")
	}
	replayer := trace.NewReplayer(failures)
	var rep Report

	for step := 1; step <= totalSteps; {
		// Advance every rank one step.
		for i, r := range m.runners {
			if err := r.Step(); err != nil {
				return rep, fmt.Errorf("sched: rank %d step %d: %w", i, step, err)
			}
		}
		rep.StepsExecuted++
		rep.VirtualTime += m.stepDuration

		if step%m.every == 0 {
			if _, err := m.cluster.Checkpoint(context.Background(), step, ndp.LevelErasure); err != nil {
				return rep, fmt.Errorf("sched: checkpoint at step %d: %w", step, err)
			}
			rep.Checkpoints++
		}

		// Fire any failures scheduled up to the current virtual time.
		events := replayer.Advance(rep.VirtualTime)
		if len(events) == 0 {
			step++
			continue
		}
		// Multiple simultaneous failures all strike before recovery.
		for _, ev := range events {
			rank := ev.Rank % len(m.runners)
			if err := m.cluster.FailNode(rank); err != nil {
				return rep, err
			}
		}
		out, err := m.cluster.Recover(context.Background(), cluster.RecoverOptions{})
		if err != nil {
			return rep, fmt.Errorf("sched: recovery at step %d: %w", step, err)
		}
		rep.Recoveries++
		worst := node.LevelLocal
		for _, l := range out.Levels {
			if l > worst {
				worst = l
			}
		}
		switch worst {
		case node.LevelPartner:
			rep.PartnerRecoveries++
		case node.LevelIO:
			rep.IORecoveries++
		}
		step = out.Step + 1
	}
	rep.StepsCompleted = totalSteps
	return rep, nil
}
