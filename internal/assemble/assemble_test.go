package assemble

import (
	"strings"
	"testing"
	"time"

	"aegaeon/internal/fault"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// built lists which handles a Parts carries, in Spec field order.
type built struct {
	obs, mon, ovl, prefix, fleet, mkt, dec, faults bool
}

func handles(p *Parts) built {
	return built{
		obs:    p.Obs != nil,
		mon:    p.SLOMon != nil,
		ovl:    p.Overload != nil,
		prefix: p.Prefix,
		fleet:  p.Fleet != nil,
		mkt:    p.Market != nil,
		dec:    p.Decisions != nil,
		faults: p.Faults != nil,
	}
}

// TestBuild checks each implication, the market fit check, and that the
// monitor gets a fault predicate exactly when a fault runtime is given.
func TestBuild(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		faults  bool // pass a fault runtime
		want    built
		wantErr string
	}{
		{name: "nothing", spec: Spec{}},
		{name: "tracing", spec: Spec{Tracing: true}, want: built{obs: true}},
		{name: "monitor implies collector", spec: Spec{SLOMonitor: true},
			want: built{obs: true, mon: true}},
		{name: "overload implies monitor and collector", spec: Spec{Overload: true},
			want: built{obs: true, mon: true, ovl: true}},
		{name: "routing implies prefix cache", spec: Spec{PrefixRouting: true}, want: built{prefix: true}},
		{name: "fleet", spec: Spec{FleetAccounting: true}, want: built{fleet: true}},
		{name: "market implies fleet", spec: Spec{Market: true, Models: model.MarketMix(8)},
			want: built{fleet: true, mkt: true}},
		{name: "decisions", spec: Spec{Decisions: true}, want: built{dec: true}},
		{name: "faults without monitor", spec: Spec{}, faults: true, want: built{faults: true}},
		{name: "faults with monitor", spec: Spec{SLOMonitor: true}, faults: true,
			want: built{obs: true, mon: true, faults: true}},
		{name: "small models fit every class",
			spec: Spec{Market: true, MarketClasses: "H800,A10", Models: model.SmallMix(8)},
			want: built{fleet: true, mkt: true}},
		{name: "market models overflow A10",
			spec:    Spec{Market: true, MarketClasses: "A10", Models: model.MarketMix(8)},
			wantErr: "does not fit market class A10"},
		{name: "unknown class", spec: Spec{Market: true, MarketClasses: "Z9"}, wantErr: "Z9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			se := sim.NewEngine(1)
			spec := tc.spec
			if tc.faults {
				spec.Faults = fault.New(se, 1)
			}
			p, err := Build(se, spec)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := handles(p); got != tc.want {
				t.Fatalf("built %+v, want %+v", got, tc.want)
			}
			if p.SLOMon == nil {
				return
			}
			cfg := p.SLOMon.Config()
			if cfg.Source != p.Obs {
				t.Error("monitor does not join against the built collector")
			}
			if (cfg.FaultActive != nil) != tc.faults {
				t.Fatalf("FaultActive set = %v, want %v", cfg.FaultActive != nil, tc.faults)
			}
			if tc.faults {
				spec.Faults.FailTransfers("decode0", time.Second)
				if !cfg.FaultActive("m", "decode0") || cfg.FaultActive("m", "decode1") {
					t.Error("FaultActive does not follow the transfer-failure window")
				}
			}
		})
	}
}
