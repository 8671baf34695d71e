package market

import (
	"testing"
	"time"

	"aegaeon/internal/fleetobs"
	"aegaeon/internal/gpu"
	"aegaeon/internal/sim"
)

func mustClasses(t *testing.T, spec string) []*Class {
	t.Helper()
	cs, err := ParseClasses(spec)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestParseClasses(t *testing.T) {
	cs := mustClasses(t, "H800, A10,RTX4090")
	if len(cs) != 3 || cs[0].Name != "H800" || cs[1].Name != "A10" || cs[2].Name != "RTX4090" {
		t.Fatalf("got %+v", cs)
	}
	if cs[2].Prof.VRAMBytes != 24<<30 {
		t.Fatalf("RTX4090 VRAM = %d", cs[2].Prof.VRAMBytes)
	}
	if cs[0].Prof.PeakFLOPS <= cs[1].Prof.PeakFLOPS {
		t.Fatal("H800 should out-compute A10")
	}
	if _, err := ParseClasses("H800,notagpu"); err == nil {
		t.Fatal("want error for unknown class")
	}
	// Default pool is homogeneous H800.
	cs = mustClasses(t, "")
	if len(cs) != 1 || cs[0].Name != "H800" {
		t.Fatalf("default classes = %+v", cs)
	}
	for _, n := range ClassNames() {
		if _, err := ParseClasses(n); err != nil {
			t.Fatalf("built-in class %s: %v", n, err)
		}
	}
}

func TestRegisterCyclesClasses(t *testing.T) {
	se := sim.NewEngine(1)
	m := New(se, nil, Config{Classes: mustClasses(t, "H800,A10")})
	if got := m.Register("d0").Name; got != "H800" {
		t.Fatalf("d0 class %s", got)
	}
	if got := m.Register("d1").Name; got != "A10" {
		t.Fatalf("d1 class %s", got)
	}
	if got := m.Register("d2").Name; got != "H800" {
		t.Fatalf("d2 class %s", got)
	}
	// Re-registering returns the existing class, no re-assignment.
	if got := m.Register("d1").Name; got != "A10" {
		t.Fatalf("d1 re-register class %s", got)
	}
	if got := m.ClassFor("d2"); got == nil || got.Name != "H800" {
		t.Fatalf("ClassFor(d2) = %v", got)
	}
}

// The price walk must stay within its clamp band, be deterministic per seed,
// and feed the fleet ledger piecewise.
func TestPriceWalkBoundedDeterministic(t *testing.T) {
	run := func(seed int64) []float64 {
		se := sim.NewEngine(1)
		fl := fleetobs.New(se)
		fl.ObserveDevice(gpu.NewDevice(se, "d0"))
		m := New(se, fl, Config{Classes: mustClasses(t, "A10"), Spot: true, Seed: seed})
		m.Register("d0")
		m.Start(120 * tickPeriod)
		var rates []float64
		for i := 1; i <= 120; i++ {
			se.At(time.Duration(i)*tickPeriod+time.Millisecond, func() {
				rates = append(rates, m.Rate("d0"))
			})
		}
		se.Run()
		return rates
	}
	a, b, c := run(7), run(7), run(8)
	if len(a) != 120 {
		t.Fatalf("got %d samples", len(a))
	}
	base := mustClasses(t, "A10")[0].SpotBase
	moved := false
	for i, r := range a {
		if r < 0.25*base-1e-9 || r > 4*base+1e-9 {
			t.Fatalf("rate %g escaped clamp band at tick %d", r, i)
		}
		if r != a[0] {
			moved = true
		}
		if r != b[i] {
			t.Fatalf("same seed diverged at tick %d: %g vs %g", i, r, b[i])
		}
	}
	if !moved {
		t.Fatal("walk never moved")
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical walks")
	}
}

func TestNoticeRevokeLifecycle(t *testing.T) {
	se := sim.NewEngine(1)
	m := New(se, nil, Config{Classes: mustClasses(t, "H800"), Spot: true, Aware: true})
	m.Register("d0")
	if m.UnderNotice("d0") {
		t.Fatal("fresh device under notice")
	}
	if err := m.Notice("nope", 5*time.Second); err == nil {
		t.Fatal("notice on unknown device should error")
	}
	if err := m.Notice("d0", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.Notice("d0", 5*time.Second); err == nil {
		t.Fatal("double notice should error")
	}
	if !m.UnderNotice("d0") {
		t.Fatal("device should be under notice")
	}
	if dl, ok := m.Deadline("d0"); !ok || dl != 5*time.Second {
		t.Fatalf("deadline = %v, %v", dl, ok)
	}
	if _, ok := m.PlacementPenalty("d0", time.Second); ok {
		t.Fatal("aware placement must exclude a device under notice")
	}
	m.NoteEvacuatedKV("d0", 1000)
	m.NoteRehomedPrefix("d0", 200)
	m.Revoked("d0")
	m.NoteLostKV("d0", 50)
	if m.UnderNotice("d0") {
		t.Fatal("revoked device still under notice")
	}
	st := m.Stats()
	if st.Preemptions != 1 || st.Revocations != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.EvacuatedKVBytes != 1000 || st.LostKVBytes != 50 || st.RehomedPrefixBytes != 200 {
		t.Fatalf("byte stats %+v", st)
	}
	if st.DeadlinesMissed != 1 {
		t.Fatalf("deadlines missed %d", st.DeadlinesMissed)
	}
	recs := m.Records()
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	r := recs[0]
	if r.Device != "d0" || r.Class != "H800" || r.RevokedAtS < 0 {
		t.Fatalf("record %+v", r)
	}
	if r.EvacuatedKVBytes != 1000 || r.LostKVBytes != 50 || r.RehomedPrefixBytes != 200 {
		t.Fatalf("record bytes %+v", r)
	}
}

func TestPlacementPenaltyRiskModel(t *testing.T) {
	se := sim.NewEngine(1)
	m := New(se, nil, Config{Classes: mustClasses(t, "H800,RTX3090"), Spot: true, Aware: true})
	m.Register("dc")  // H800, 30m MTBF
	m.Register("con") // RTX3090, 5m MTBF
	pDC, ok := m.PlacementPenalty("dc", 2*time.Second)
	if !ok {
		t.Fatal("eligible device excluded")
	}
	pCon, ok := m.PlacementPenalty("con", 2*time.Second)
	if !ok {
		t.Fatal("eligible device excluded")
	}
	if pCon <= pDC {
		t.Fatalf("short-MTBF consumer penalty %g should exceed datacenter %g", pCon, pDC)
	}
	// Longer switch cost = more investment at risk.
	pLong, _ := m.PlacementPenalty("con", 20*time.Second)
	if pLong <= pCon {
		t.Fatalf("penalty should grow with switch cost: %g vs %g", pLong, pCon)
	}
	// Throttle adds penalty.
	m.Throttle("dc", 3)
	pThr, ok := m.PlacementPenalty("dc", 2*time.Second)
	if !ok || pThr <= pDC {
		t.Fatalf("throttle penalty %g should exceed nominal %g", pThr, pDC)
	}
	m.ClearThrottle("dc")
	if p, _ := m.PlacementPenalty("dc", 2*time.Second); p != pDC {
		t.Fatalf("clearing throttle should restore penalty: %g vs %g", p, pDC)
	}
	// VRAM-headroom starvation excludes until pressure clears.
	m.NoteHeadroom("dc", 0.001)
	if _, ok := m.PlacementPenalty("dc", time.Second); ok {
		t.Fatal("starved device should be excluded")
	}
	m.NoteHeadroom("dc", 0.5)
	if _, ok := m.PlacementPenalty("dc", time.Second); !ok {
		t.Fatal("recovered device should be eligible again")
	}
}

// Spot-naive mode must see no exclusions and no penalties — it is the
// baseline the aware arm is measured against.
func TestNaiveModeSeesNoRisk(t *testing.T) {
	se := sim.NewEngine(1)
	m := New(se, nil, Config{Classes: mustClasses(t, "RTX3090"), Spot: true, Aware: false})
	m.Register("d0")
	if err := m.Notice("d0", time.Second); err != nil {
		t.Fatal(err)
	}
	p, ok := m.PlacementPenalty("d0", 10*time.Second)
	if !ok || p != 0 {
		t.Fatalf("naive placement saw risk: %g, %v", p, ok)
	}
}

// A nil market is the zero-cost off path everywhere.
func TestNilMarketSafe(t *testing.T) {
	var m *Market
	if m.Enabled() || m.Aware() || m.Spot() {
		t.Fatal("nil market claims to be on")
	}
	m.Register("x")
	m.Start(time.Minute)
	m.Revoked("x")
	m.NoteHeadroom("x", 0)
	m.NoteEvacuatedKV("x", 1)
	m.NoteLostKV("x", 1)
	m.NoteRehomedPrefix("x", 1)
	m.ClearThrottle("x")
	if !m.Eligible("x") {
		t.Fatal("nil market should never exclude")
	}
	if p, ok := m.PlacementPenalty("x", time.Second); p != 0 || !ok {
		t.Fatal("nil market should be penalty-free")
	}
	if m.ThrottleFactor("x") != 1 || m.CapabilityScore("x") != 1 {
		t.Fatal("nil market factors should be neutral")
	}
	if m.Snapshot(0, nil) != nil || m.Records() != nil {
		t.Fatal("nil market snapshot should be nil")
	}
	if err := m.Notice("x", 0); err == nil {
		t.Fatal("nil market Notice should error")
	}
	if err := m.Throttle("x", 2); err == nil {
		t.Fatal("nil market Throttle should error")
	}
}

func TestSnapshotClassEconomics(t *testing.T) {
	se := sim.NewEngine(1)
	fl := fleetobs.New(se)
	m := New(se, fl, Config{Classes: mustClasses(t, "H800,A10"), Spot: true, Aware: true})
	for _, n := range []string{"d0", "d1", "d2", "d3"} {
		fl.ObserveDevice(gpu.NewDevice(se, n))
		m.Register(n)
	}
	m.Start(0)
	// Run one virtual hour so the ledger integrates cost, and credit
	// goodput so $/1k-tokens is defined.
	se.At(time.Hour, func() {
		fl.AddTokens(fl.Ref("d0"), 1, 4000)
		fl.AddTokens(fl.Ref("d1"), 1, 1000)
	})
	se.Run()
	if err := m.Notice("d1", time.Second); err != nil {
		t.Fatal(err)
	}
	m.NoteLostKV("d1", 77)
	snap := m.Snapshot(se.Now(), fl.Snapshot(se.Now()))
	if snap.SchemaVersion != SchemaVersion || !snap.Spot || !snap.Aware {
		t.Fatalf("snapshot header %+v", snap)
	}
	if len(snap.Devices) != 4 || len(snap.Classes) != 2 {
		t.Fatalf("%d devices, %d classes", len(snap.Devices), len(snap.Classes))
	}
	var h800, a10 *ClassEconomics
	for i := range snap.Classes {
		switch snap.Classes[i].Class {
		case "H800":
			h800 = &snap.Classes[i]
		case "A10":
			a10 = &snap.Classes[i]
		}
	}
	if h800 == nil || a10 == nil {
		t.Fatalf("classes %+v", snap.Classes)
	}
	if h800.Devices != 2 || a10.Devices != 2 {
		t.Fatalf("device split %+v / %+v", h800, a10)
	}
	if h800.Tokens != 4000 || a10.Tokens != 1000 {
		t.Fatalf("tokens %d / %d", h800.Tokens, a10.Tokens)
	}
	if h800.CostDollars <= 0 || a10.CostDollars <= 0 {
		t.Fatalf("costs %g / %g", h800.CostDollars, a10.CostDollars)
	}
	if h800.DollarsPer1KTokens <= 0 {
		t.Fatal("H800 $/1k-tokens undefined")
	}
	// H800 spot is pricier per hour than A10 and both classes produced, so
	// per-1k economics must differ.
	if h800.DollarsPer1KTokens == a10.DollarsPer1KTokens {
		t.Fatal("class economics identical across classes")
	}
	if a10.Preemptions != 1 || a10.LostKVBytes != 77 {
		t.Fatalf("A10 preemption rollup %+v", a10)
	}
	// The under-notice device renders as ineligible with a deadline.
	for _, d := range snap.Devices {
		if d.Device == "d1" {
			if d.Eligible || !d.UnderNotice || d.DeadlineS <= 0 {
				t.Fatalf("d1 state %+v", d)
			}
		}
	}
}
