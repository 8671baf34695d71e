package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/engine"
	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
	"aegaeon/internal/workload"
)

// ladderDigests is what one TestSwitchLadderGolden run pins: the sha256 of
// every request's token times, of the collector's switch records, of its
// Perfetto export and of the fleet ledger's snapshot JSON, and each engine's
// counters.
type ladderDigests struct {
	tokens, switches, perfetto, fleet string
	stats                             string
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// runLadder serves SmallMix(8) at 0.15 req/s per model for 120 s on 1+2
// instances under opts, with a collector and a fleet ledger attached. A
// cold run shrinks host DRAM so models miss the host model cache, fails
// every registry fetch for 15 s from 10 s and slows fetches 3× for 20 s
// from 50 s. It returns the run's digests and the names of every switch
// stage it recorded.
func runLadder(t *testing.T, opts engine.Options, cold bool) (ladderDigests, map[string]bool) {
	t.Helper()
	models := model.SmallMix(8)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(21))
	trace := workload.PoissonTrace(rng, names, 0.15, 120*time.Second, workload.ShareGPT())

	se := sim.NewEngine(1)
	cfg := testConfig(models, opts, 1, 2)
	col := obs.New(obs.Options{})
	fleet := fleetobs.New(se)
	cfg.Obs, cfg.Fleet = col, fleet
	if cold {
		cfg.hostDRAM = 96 << 30
		cfg.Faults = fault.New(se, 1)
		se.At(10*time.Second, func() { cfg.Faults.FailFetch("", 15*time.Second) })
		se.At(50*time.Second, func() { cfg.Faults.SlowFetch(3, 20*time.Second) })
	}
	sys := NewSystem(se, cfg)
	sys.LogTokens()
	if err := sys.Submit(trace); err != nil {
		t.Fatal(err)
	}
	se.Run()
	sys.Finalize(se.Now())

	var d ladderDigests
	h := sha256.New()
	var buf [8]byte
	for _, r := range sys.Requests() {
		h.Write([]byte(r.ID))
		h.Write([]byte{0})
		for _, at := range r.TokenTimes {
			binary.BigEndian.PutUint64(buf[:], uint64(at))
			h.Write(buf[:])
		}
	}
	d.tokens = hex.EncodeToString(h.Sum(nil))

	recs, total := col.Switches()
	stages := map[string]bool{}
	for _, r := range recs {
		for _, s := range r.Stages {
			stages[s.Name] = true
		}
	}
	b, err := json.Marshal(struct {
		Records []obs.SwitchRecord
		Total   uint64
	}{recs, total})
	if err != nil {
		t.Fatal(err)
	}
	d.switches = sha(b)

	var pf bytes.Buffer
	if err := col.WritePerfetto(&pf); err != nil {
		t.Fatal(err)
	}
	d.perfetto = sha(pf.Bytes())

	snap := fleet.Snapshot(se.Now())
	if len(snap.ConservationErrors) > 0 {
		t.Errorf("conservation violated: %v", snap.ConservationErrors)
	}
	if b, err = json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	d.fleet = sha(b)

	var st []string
	for _, e := range sys.Engines() {
		s := e.Stats()
		st = append(st, fmt.Sprintf("%s sw=%d ph=%d cm=%d gc=%d ri=%d pf=%d ds=%d dr=%d lat=%d/%.9g",
			e.Name, s.Switches, s.PrefetchHits, s.CacheMisses, s.GCPauses, s.Reinits,
			s.PrefillJobs, s.DecodeSteps, s.DecodeRuns, s.SwitchLatency.N(), s.SwitchLatency.Mean()))
	}
	if cold {
		f := cfg.Faults.Snapshot()
		st = append(st, fmt.Sprintf("fetch fail=%d retry=%d exhausted=%d",
			f.FetchFailures, f.FetchRetries, f.FetchExhausted))
	}
	d.stats = strings.Join(st, "; ")
	return d, stages
}

// TestSwitchLadderGolden pins what every model switch does, stage by stage,
// under each optimization level and both placement modes: T0, T1
// (component reuse), T2 (+ explicit memory), T3, T3 with colocation, and
// colocation without prefetch. Each runs warm (every model in the host
// model cache) and cold (host cache misses plus registry fetch failures and
// slowdowns). A refactor of the engine's switch or prefetch path that moves
// one stage, op, counter or model-cache lookup by a nanosecond fails here.
func TestSwitchLadderGolden(t *testing.T) {
	t0 := engine.Unoptimized()
	t1 := engine.Options{ComponentReuse: true}
	t2 := engine.Options{ComponentReuse: true, ExplicitMemory: true}
	t3 := engine.AllOptimizations()
	t3c := t3
	t3c.Colocate = true
	colo := t3c
	colo.Prefetch = false
	sets := []struct {
		name string
		opts engine.Options
	}{{"T0", t0}, {"T1", t1}, {"T2", t2}, {"T3", t3}, {"T3+colocate", t3c}, {"colocate-noprefetch", colo}}

	want := map[string]ladderDigests{
		"T0/warm": {"361fbe89f3bcc4c0446bc73f1f4bdeecae0edd4f51448e2649f97305d37e8421", "42c8222c264f9b6f86ad7f53c77ce24c1d6f4e1e15ed14d04aec4d6b72a52743", "2aafc6e99ff75a91c4211f8ddccc878548eb5d08648bc6a8f68f423544e99436", "ff5b5d9ef0217f3e849f80b44aba6f9f9f734ad7d2b5d50b868c2146631db2f5",
			"prefill0 sw=23 ph=0 cm=0 gc=22 ri=23 pf=150 ds=0 dr=0 lat=23/25.1249501; decode0 sw=25 ph=0 cm=0 gc=24 ri=25 pf=0 ds=9332 dr=99 lat=25/25.285583; decode1 sw=26 ph=0 cm=0 gc=25 ri=26 pf=0 ds=9913 dr=102 lat=26/24.9470101"},
		"T0/cold": {"1ced13b7fe51d23a4169c12c70a70dd49018590a418482222f972b615f4d169a", "a2324349c2309fe6cc4d5305b9b7cb8ec715806f9796cef11d20b9623ee761de", "8a3523ffffa262f731d3d85984ff104c18b2802de1e6dea166bc12019752f085", "e5ef6a41fa05847cd8f03fece6aab78494db3084add3349bf94f8ea7e5546746",
			"prefill0 sw=23 ph=0 cm=18 gc=22 ri=23 pf=150 ds=0 dr=0 lat=23/26.9774138; decode0 sw=12 ph=0 cm=0 gc=11 ri=12 pf=0 ds=13323 dr=105 lat=12/25.0423145; decode1 sw=11 ph=0 cm=0 gc=10 ri=11 pf=0 ds=9595 dr=101 lat=11/24.9878252; fetch fail=0 retry=0 exhausted=0"},
		"T1/warm": {"e9540b5c33177e38e7d86f465a9bef3095cd91e99ca18d90c5b1d5a0785db1ab", "e5d7b887c8ca81f0da3d6879a8b57c8ce6371073cfde2122fe86f033f765a4fe", "a3a7f63173e2e957b5a218e0756f1549ef582914ad5d65b98b726c07b902d3ad", "0901fb86287697618ef693ee1706886d8e76ee92e87b9a80b3bd056c53bb4212",
			"prefill0 sw=41 ph=0 cm=0 gc=40 ri=0 pf=150 ds=0 dr=0 lat=41/3.15360976; decode0 sw=32 ph=0 cm=0 gc=31 ri=0 pf=0 ds=9281 dr=117 lat=32/3.131; decode1 sw=26 ph=0 cm=0 gc=25 ri=0 pf=0 ds=7553 dr=89 lat=26/3.12507692"},
		"T1/cold": {"55e5f9b76b87668c9be26ed317b87e6e993da2e12f66fca817c7634067eb4fc6", "3b874cfbab95b1c329ab89369ebf3094e690f3ab21c2eefaa83edff0008be600", "fdaba6185f687bcd8cd627ec3377ea9edfcc7468e768dc6b5fa1a6660d31cfe2", "b06b9f8a77fa3e4fd65edac54172c36b4133e145d4470cbd6dd41718b43c8461",
			"prefill0 sw=28 ph=0 cm=20 gc=27 ri=0 pf=150 ds=0 dr=0 lat=28/5.30811335; decode0 sw=27 ph=0 cm=16 gc=26 ri=0 pf=0 ds=7729 dr=119 lat=27/4.57822222; decode1 sw=28 ph=0 cm=19 gc=27 ri=0 pf=0 ds=8625 dr=98 lat=28/5.04347619; fetch fail=10 retry=10 exhausted=1"},
		"T2/warm": {"b9fa3c02409a278580b2158a562eb9b1839e811d9e7aab93d690d26fd547d013", "60338a7e4a39fd33d96ed11659234bc27fda49ffa62752de44fb87a8fa4f16a4", "850f1a5cda67fadea5a02f9f970ab08524b082de724686fe2e62bf0126efd992", "ea28924d4957ef5b4a4cbc9ce18e0c1183ff2e351f7c1512d5216e2b1da11ea2",
			"prefill0 sw=118 ph=0 cm=0 gc=0 ri=0 pf=150 ds=0 dr=0 lat=118/0.707915254; decode0 sw=31 ph=0 cm=0 gc=0 ri=0 pf=0 ds=8514 dr=110 lat=31/0.757096774; decode1 sw=39 ph=0 cm=0 gc=0 ri=0 pf=0 ds=11395 dr=124 lat=39/0.677282051"},
		"T2/cold": {"3804ea777e7c168ff5242b14db680744354ffdd07f140da896f7f6b72126cf82", "baba3da3613914c3f9983b99617557853d0d6e58a29dd4079f667e952fe7a88c", "91ab3337e0901908283750eccbdaa947bde23269312185549e17f63808877720", "959440a3ecebdf533d45ab037b174ea3969d9682e2e7f232a027afcac6c12bf0",
			"prefill0 sw=41 ph=0 cm=27 gc=0 ri=0 pf=150 ds=0 dr=0 lat=41/2.97082404; decode0 sw=30 ph=0 cm=11 gc=0 ri=0 pf=0 ds=9177 dr=115 lat=30/1.94748889; decode1 sw=32 ph=0 cm=19 gc=0 ri=0 pf=0 ds=8718 dr=115 lat=32/2.27954167; fetch fail=27 retry=27 exhausted=4"},
		"T3/warm": {"12c46c6f9a3df1105ff727041c495bef8d3ffcc0156e4a68033c81c315c5f94a", "39206f3993134940dc730c6b28c464c3dcf39f3a02cc41e0878fbe7bd902f135", "80f9234f098c8b72045c95db8cb0de9bf7c16caa99178ef1dde67e6fc8d7a9b1", "29aec93ee252c8c2a6d7659efcbfce7e1b3609bad6d113cf820cb7a9fa4a3eec",
			"prefill0 sw=118 ph=75 cm=0 gc=0 ri=0 pf=150 ds=0 dr=0 lat=118/0.703360991; decode0 sw=66 ph=62 cm=0 gc=0 ri=0 pf=0 ds=10466 dr=451 lat=66/0.0683129875; decode1 sw=80 ph=75 cm=0 gc=0 ri=0 pf=0 ds=11390 dr=535 lat=80/0.0759246439"},
		"T3/cold": {"284cafc4df459ef42b9f0820203a41212a2e2dbeaa07e82717c91dc54858771d", "cf7294a7d708236385d2feebb12c58437d97b5bc44afb60845ce9cfa692824aa", "1feeeb5011d07d374b038f0089c022ab65648ce2060f237f57a2a2abaaaeef3e", "5fec236d1220843c3d62ae5c98b9dfc4aff90c0e9e46679c3573daa0bcb0d798",
			"prefill0 sw=42 ph=39 cm=30 gc=0 ri=0 pf=150 ds=0 dr=0 lat=42/3.00241309; decode0 sw=86 ph=81 cm=30 gc=0 ri=0 pf=0 ds=10382 dr=692 lat=86/0.629701631; decode1 sw=46 ph=41 cm=24 gc=0 ri=0 pf=0 ds=8486 dr=415 lat=46/0.809369324; fetch fail=27 retry=27 exhausted=4"},
		"T3+colocate/warm": {"aa0cde1ee381ac6f74e803f53c43a4a76d8f0b0429effb0ee4288c2292d52efe", "054600b01fbdb7659854c2bf00221e95eef95a4677d71ecf80e61bd7845bc447", "50514bc00b4a51a16eecbdff1391fff26ae677bd4649639c1537dd718a757837", "e6f6d92f06ddac835bec2f7c706a0bfca1b1c3b0e12f23e20b00a1119cb0726d",
			"prefill0 sw=120 ph=36 cm=0 gc=0 ri=0 pf=150 ds=0 dr=0 lat=120/0.547841359; decode0 sw=66 ph=30 cm=0 gc=0 ri=0 pf=0 ds=9740 dr=277 lat=66/0.400541993; decode1 sw=261 ph=234 cm=0 gc=0 ri=0 pf=0 ds=9960 dr=534 lat=261/0.0753869732"},
		"T3+colocate/cold": {"5ce999d1f4ff8601e8e38b8db100cf4bd215e3a7cc4385cb92e1344a585a945d", "09770de92c337496b10a824e80168c7c119a9ee09db08bec9f5085009443b7bc", "12d2122c1afcdbf597b78c74d1dc234d67c3195aad71013f35f6b6a482ae789f", "cde4d1e2e5e2ea3c12ff10ac472575be0be793bd91314e9bb395cf8b5fc99799",
			"prefill0 sw=38 ph=7 cm=30 gc=0 ri=0 pf=150 ds=0 dr=0 lat=38/3.20970681; decode0 sw=364 ph=348 cm=4 gc=0 ri=0 pf=0 ds=10659 dr=822 lat=364/0.050978022; decode1 sw=363 ph=338 cm=7 gc=0 ri=0 pf=0 ds=9769 dr=717 lat=363/0.0961167151; fetch fail=29 retry=29 exhausted=4"},
		"colocate-noprefetch/warm": {"c140db53c3216c8485582000371a7a4e58565bc78aba0545342c6b6084083984", "75f0f052909654f0ab20597714e1a7d73c2d0c408638a4429741b2a394fcab66", "9d2a1689d7d83a0886f6a8769d6b2ebca6e4d5a901389b81fc84611eb7d70418", "0a00b3a52f6d5d50d91db78969e74270f403c9f16bc84dc497c3d004b13eb4b7",
			"prefill0 sw=120 ph=27 cm=0 gc=0 ri=0 pf=150 ds=0 dr=0 lat=120/0.549175; decode0 sw=36 ph=1 cm=0 gc=0 ri=0 pf=0 ds=9936 dr=199 lat=36/0.678527778; decode1 sw=326 ph=309 cm=0 gc=0 ri=0 pf=0 ds=10585 dr=676 lat=326/0.0379969325"},
		"colocate-noprefetch/cold": {"e6063abfbfac7087f84562b75e48c6821894030097002b93ee72bcad80a42e31", "961781ccb14b9ca875754c3e198496dc5be4d319fc4f2e407c59398883910e8b", "7b5bb91306a83e2a0ecdfab27bd41b15bcec52c7d7885d49b29ed9a1977bffeb", "eedc685085c7438518cf2e8e47060fa1a2a26baeed3f37293abcb36c444ad654",
			"prefill0 sw=40 ph=1 cm=28 gc=0 ri=0 pf=150 ds=0 dr=0 lat=40/2.95938532; decode0 sw=150 ph=128 cm=12 gc=0 ri=0 pf=0 ds=9671 dr=397 lat=150/0.332546667; decode1 sw=145 ph=119 cm=8 gc=0 ri=0 pf=0 ds=9933 dr=317 lat=145/0.25882069; fetch fail=29 retry=29 exhausted=4"},
	}

	seen := map[string]bool{}
	for _, set := range sets {
		for _, cold := range []bool{false, true} {
			name := set.name + "/warm"
			if cold {
				name = set.name + "/cold"
			}
			got, stages := runLadder(t, set.opts, cold)
			for s := range stages {
				seen[s] = true
			}
			w, ok := want[name]
			if !ok {
				t.Errorf("%s: no pinned digests; got\n\t%q: {%q, %q, %q, %q,\n\t\t%q},",
					name, name, got.tokens, got.switches, got.perfetto, got.fleet, got.stats)
				continue
			}
			if got != w {
				t.Errorf("%s: digests moved\n got %+v\nwant %+v", name, got, w)
			}
		}
	}
	for _, s := range []string{"gc-pause", "reinit", "fetch", "compact", "weight-load", "activate"} {
		if !seen[s] {
			t.Errorf("no run recorded a %q stage; the golden no longer covers it", s)
		}
	}
}
