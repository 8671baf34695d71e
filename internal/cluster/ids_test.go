package cluster

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// TestModelIDsAcrossDeployments: the deployments of one cluster share its
// observers, so their models take dense ids from one registry, and every
// observer export still names each model by its name.
func TestModelIDsAcrossDeployments(t *testing.T) {
	small, large := model.SmallMix(4), model.LargeMix(2)
	se := sim.NewEngine(1)
	col := obs.New(obs.Options{})
	mon := slomon.New(slomon.Config{Source: col})
	fleet := fleetobs.New(se)
	c, err := New(se, Config{
		Prof: latency.H800(), SLO: slo.Default(),
		Obs: col, SLOMon: mon, Fleet: fleet, Decisions: decision.New(decision.Options{}),
		Deployments: []DeploymentConfig{
			{Name: "tp1", TP: 1, NumPrefill: 1, NumDecode: 2, Models: small},
			{Name: "tp4", TP: 4, NumPrefill: 1, NumDecode: 1, Models: large},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var ids []model.ID
	for _, d := range c.Deployments() {
		for _, m := range append(slices.Clone(small), large...) {
			if id, ok := d.System.ModelID(m.Name); ok {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	for i, id := range ids {
		if id != model.ID(i+1) {
			t.Fatalf("model ids across deployments = %v, want 1..%d once each", ids, len(small)+len(large))
		}
	}
	if len(ids) != len(small)+len(large) {
		t.Fatalf("%d ids for %d models", len(ids), len(small)+len(large))
	}

	var names []string
	for _, m := range append(slices.Clone(small), large...) {
		names = append(names, m.Name)
	}
	trace := workload.PoissonTrace(rand.New(rand.NewSource(2)), names, 0.05, 60*time.Second, workload.ShareGPT())
	if err := c.Submit(trace); err != nil {
		t.Fatal(err)
	}
	se.Run()
	c.Finalize(se.Now())
	served := map[string]bool{}
	modelOf := map[string]string{}
	for _, r := range trace {
		served[r.Model] = true
		modelOf[r.ID] = r.Model
	}
	if len(served) != len(names) {
		t.Fatalf("trace reaches %d of %d models; the check needs all", len(served), len(names))
	}

	fleetNames := map[string]bool{}
	for _, m := range fleet.Snapshot(se.Now()).Models {
		fleetNames[m.Model] = true
		if m.Tokens == 0 {
			t.Errorf("fleet snapshot credits model %s no tokens", m.Model)
		}
	}
	monNames := map[string]bool{}
	for _, m := range mon.Snapshot(se.Now()).Models {
		monNames[m.Model] = true
	}
	for name := range served {
		if !fleetNames[name] || !monNames[name] {
			t.Errorf("model %s: in fleet snapshot %v, in SLO snapshot %v", name, fleetNames[name], monNames[name])
		}
	}
	if len(fleetNames) != len(served) || len(monNames) != len(served) {
		t.Errorf("snapshots name %d (fleet) and %d (SLO) models, want %d", len(fleetNames), len(monNames), len(served))
	}
	for _, rt := range col.Requests(0) {
		if rt.Model != modelOf[rt.ID] {
			t.Errorf("timeline %s names model %q, want %q", rt.ID, rt.Model, modelOf[rt.ID])
		}
	}
	for _, tl := range col.DeviceTimelines() {
		for _, op := range tl.Ops {
			if op.Info.Model == model.NoID {
				continue
			}
			if name := col.ModelName(op.Info.Model); !served[name] {
				t.Fatalf("%s op names model id %d, resolved to %q", tl.Device, op.Info.Model, name)
			}
		}
	}
}
