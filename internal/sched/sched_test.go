package sched

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"ndpcr/internal/cluster"
	"ndpcr/internal/compress"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/model"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/trace"
	"ndpcr/internal/units"
)

func TestDerivePolicy(t *testing.T) {
	p := model.DefaultParams()
	p.LocalInterval = 0 // derive from Daly
	pol, err := Derive(p, true)
	if err != nil {
		t.Fatal(err)
	}
	// δ_L = 7.47 s, M = 30 min → τ ≈ 157 s.
	if math.Abs(float64(pol.LocalInterval)-157) > 10 {
		t.Errorf("derived interval = %v, want ~157 s", pol.LocalInterval)
	}
	if pol.HostIOEvery != 0 {
		t.Errorf("NDP policy has host I/O cadence %d", pol.HostIOEvery)
	}

	polHost, err := Derive(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if polHost.HostIOEvery < 1 {
		t.Errorf("host policy ratio = %d", polHost.HostIOEvery)
	}

	// Pinned interval passes through.
	p.LocalInterval = 150
	pol, err = Derive(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if pol.LocalInterval != 150 {
		t.Errorf("pinned interval = %v", pol.LocalInterval)
	}

	bad := model.DefaultParams()
	bad.MTTI = 0
	if _, err := Derive(bad, true); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestStepsPerCheckpoint(t *testing.T) {
	pol := Policy{LocalInterval: 150}
	n, err := pol.StepsPerCheckpoint(30)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("steps = %d, want 5", n)
	}
	// Long steps clamp to 1.
	if n, _ := pol.StepsPerCheckpoint(1000); n != 1 {
		t.Errorf("steps = %d, want 1", n)
	}
	if _, err := pol.StepsPerCheckpoint(0); err == nil {
		t.Error("zero step duration accepted")
	}
}

// appRunner adapts a mini-app to Runner.
type appRunner struct{ app miniapps.App }

func (r *appRunner) Step() error { return r.app.Step() }
func (r *appRunner) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.app.Checkpoint(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
func (r *appRunner) Restore(data []byte) error {
	return r.app.Restore(bytes.NewReader(data))
}

func testManager(t *testing.T, ranks, every int, partner bool) (*Manager, []*appRunner, *cluster.Cluster) {
	t.Helper()
	store := iostore.New(nvm.Pacer{})
	gz, _ := compress.Lookup("gzip", 1)
	nodes := make([]*node.Node, ranks)
	runners := make([]Runner, ranks)
	apps := make([]*appRunner, ranks)
	for i := 0; i < ranks; i++ {
		app, err := miniapps.New("HPCCG", miniapps.Small, uint64(500+i))
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = &appRunner{app: app}
		runners[i] = apps[i]
		nodes[i], err = node.New(node.Config{Job: "sched", Rank: i, Store: store, Codec: gz})
		if err != nil {
			t.Fatal(err)
		}
	}
	clusterRanks := make([]cluster.Rank, ranks)
	for i, r := range runners {
		clusterRanks[i] = r
	}
	var opts []cluster.Option
	if partner {
		opts = append(opts, cluster.WithPartnerReplication())
	}
	c, err := cluster.New("sched", store, nodes, clusterRanks, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	m, err := NewManager(c, runners, every, 10)
	if err != nil {
		t.Fatal(err)
	}
	return m, apps, c
}

func TestNewManagerValidation(t *testing.T) {
	m, _, c := testManager(t, 2, 3, false)
	_ = m
	if _, err := NewManager(nil, nil, 1, 1); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := NewManager(c, nil, 1, 1); err == nil {
		t.Error("zero runners accepted")
	}
	if _, err := NewManager(c, make([]Runner, 2), 0, 1); err == nil {
		t.Error("zero cadence accepted")
	}
	if _, err := NewManager(c, make([]Runner, 2), 1, 0); err == nil {
		t.Error("zero step duration accepted")
	}
}

func TestManagedRunNoFailures(t *testing.T) {
	m, apps, _ := testManager(t, 2, 3, false)
	rep, err := m.Run(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StepsCompleted != 10 || rep.StepsExecuted != 10 || rep.RerunSteps() != 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Checkpoints != 3 { // steps 3, 6, 9
		t.Errorf("checkpoints = %d", rep.Checkpoints)
	}
	if rep.VirtualTime != 100 {
		t.Errorf("virtual time = %v", rep.VirtualTime)
	}
	for i, a := range apps {
		if a.app.StepCount() != 10 {
			t.Errorf("rank %d at step %d", i, a.app.StepCount())
		}
	}
}

func TestManagedRunSurvivesFailures(t *testing.T) {
	// Partner replication makes checkpoint availability deterministic:
	// without it the test would race the asynchronous NDP drains (an
	// early failure can strike before anything reaches I/O, leaving no
	// restart line — correct behaviour, but not what this test probes).
	m, apps, _ := testManager(t, 3, 2, true)
	// Failures at virtual times 45 and 75 (steps 5 and 8, after stepping).
	failures := []trace.Event{
		{At: 45, Rank: 1},
		{At: 75, Rank: 2},
	}
	rep, err := m.Run(12, failures)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StepsCompleted != 12 {
		t.Errorf("completed = %d", rep.StepsCompleted)
	}
	if rep.Recoveries != 2 {
		t.Errorf("recoveries = %d", rep.Recoveries)
	}
	if rep.RerunSteps() <= 0 {
		t.Error("no rerun recorded despite rollbacks")
	}
	// Trajectory equivalence: a failure-free twin must match.
	twin, _ := miniapps.New("HPCCG", miniapps.Small, 500)
	for i := 0; i < 12; i++ {
		twin.Step()
	}
	if apps[0].app.Signature() != twin.Signature() {
		t.Error("managed run diverged from failure-free trajectory")
	}
}

func TestManagedRunPartnerRecoveries(t *testing.T) {
	m, _, _ := testManager(t, 3, 2, true)
	failures := []trace.Event{{At: 65, Rank: 0}}
	rep, err := m.Run(10, failures)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries != 1 {
		t.Fatalf("recoveries = %d", rep.Recoveries)
	}
	// With partner replication and surviving buddies, recovery should not
	// have needed the I/O level.
	if rep.IORecoveries != 0 {
		t.Errorf("I/O recoveries = %d with partner level available", rep.IORecoveries)
	}
	if rep.PartnerRecoveries != 1 {
		t.Errorf("partner recoveries = %d", rep.PartnerRecoveries)
	}
}

func TestManagedRunIORecovery(t *testing.T) {
	m, _, c := testManager(t, 2, 1, false)
	// Run a few checkpoints, then wait for every rank's drain to finish
	// so the subsequent failure deterministically recovers from I/O.
	if _, err := m.Run(4, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitDurable(ctx, 4, ndp.LevelStore); err != nil {
		t.Fatalf("drains never completed: %v", err)
	}
	rep, err := m.Run(4, []trace.Event{{At: 15, Rank: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries != 1 || rep.IORecoveries != 1 {
		t.Errorf("report = %+v", rep)
	}
}

func TestManagedRunValidation(t *testing.T) {
	m, _, _ := testManager(t, 2, 2, false)
	if _, err := m.Run(0, nil); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestPolicyIntegration(t *testing.T) {
	// Derive a policy from Table 4 parameters, convert to a step cadence,
	// and drive a managed run with it: the full SCR-like flow.
	p := model.DefaultParams()
	pol, err := Derive(p, true)
	if err != nil {
		t.Fatal(err)
	}
	every, err := pol.StepsPerCheckpoint(30 * units.Second)
	if err != nil {
		t.Fatal(err)
	}
	if every != 5 { // 150 s interval / 30 s steps
		t.Fatalf("cadence = %d", every)
	}
	m, _, _ := testManager(t, 2, every, false)
	rep, err := m.Run(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoints != 2 { // steps 5 and 10
		t.Errorf("checkpoints = %d", rep.Checkpoints)
	}
}
