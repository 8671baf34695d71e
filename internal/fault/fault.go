// Package fault is the deterministic, seed-driven fault-injection subsystem.
// Like internal/obs it threads through the stack as an optional pointer: a
// nil *Faults (the default) answers every query with "no fault" so the
// fault-free paths stay byte-identical to a build without the package.
//
// A fault schedule is a list of timed Fault values, either parsed from the
// compact spec grammar (see ParseSpec) or drawn from a seeded RNG
// (RandomSchedule). An Injector replays the schedule on the simulation
// clock, so a given (seed, schedule) pair reproduces bit-for-bit: it opens
// transfer and fetch fault windows on the shared *Faults, and drives a
// Surface — the component that knows how to actually crash an instance or
// partition the metadata store — for the rest.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the injectable failure classes.
type Kind string

const (
	// KindCrash fail-stops a GPU instance (prefill or decode, any phase
	// including mid-switch). Target selects the instance ("decode0",
	// "prefill1", ...); empty picks one at random at schedule build time.
	KindCrash Kind = "crash"
	// KindTransfer makes H2D/D2H KV transfers on the target instance fail
	// for Duration; each failed attempt is retried with backoff.
	KindTransfer Kind = "xfer"
	// KindFetchFail makes remote model fetches for the target model fail
	// for Duration ("" or "*" poisons every model).
	KindFetchFail Kind = "fetchfail"
	// KindFetchSlow multiplies remote fetch latency by Factor for Duration.
	KindFetchSlow Kind = "fetchslow"
	// KindPartition severs metadata-store connectivity for Duration: every
	// store operation submitted inside the window fails.
	KindPartition Kind = "partition"
	// KindStoreSlow multiplies metadata store RTT by Factor for Duration.
	KindStoreSlow Kind = "storeslow"
	// KindReclaim delivers a spot-market preemption notice for the target
	// device: Duration is the grace window before hard revocation
	// (reclaim@t[+grace]:device). Requires a target.
	KindReclaim Kind = "reclaim"
	// KindThrottle thermal-throttles the target device: compute slows by
	// Factor for Duration. Requires a target.
	KindThrottle Kind = "throttle"
)

// knownKinds maps spec tokens to kinds; also doubles as the validation set.
var knownKinds = map[string]Kind{
	string(KindCrash):     KindCrash,
	string(KindTransfer):  KindTransfer,
	string(KindFetchFail): KindFetchFail,
	string(KindFetchSlow): KindFetchSlow,
	string(KindPartition): KindPartition,
	string(KindStoreSlow): KindStoreSlow,
	string(KindReclaim):   KindReclaim,
	string(KindThrottle):  KindThrottle,
}

// Fault is one scheduled failure.
type Fault struct {
	At       time.Duration // virtual time of injection
	Kind     Kind
	Target   string        // instance or model name; "" / "*" = wildcard
	Duration time.Duration // window length for windowed kinds
	Factor   float64       // slowdown multiplier for *slow kinds
}

func (f Fault) String() string {
	s := string(f.Kind) + "@" + f.At.String()
	if f.Duration > 0 {
		s += "+" + f.Duration.String()
	}
	if f.Factor > 0 {
		s += "*" + strconv.FormatFloat(f.Factor, 'g', -1, 64)
	}
	if f.Target != "" {
		s += ":" + f.Target
	}
	return s
}

// defaults per kind, applied by ParseSpec when the spec omits them.
const (
	defaultWindow = 10 * time.Second
	defaultFactor = 4.0
	defaultGrace  = 5 * time.Second
)

// ParseSpec parses a comma- or semicolon-separated fault schedule. Each item
// follows
//
//	kind@at[+duration][*factor][:target]
//
// for example
//
//	crash@45s:decode1,xfer@30s+10s:decode0,fetchslow@10s+30s*4,partition@60s+5s
//
// Durations use Go syntax (45s, 1m30s). Windowed kinds default to a 10s
// window; slow kinds default to a 4x factor. The returned schedule is sorted
// by injection time.
func ParseSpec(spec string) ([]Fault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	items := strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ';' })
	var out []Fault
	for _, item := range items {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		f, err := parseItem(item)
		if err != nil {
			return nil, fmt.Errorf("fault: bad spec item %q: %w", item, err)
		}
		out = append(out, f)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

func parseItem(item string) (Fault, error) {
	var f Fault
	// Trailing :target (the target itself never contains ':').
	if i := strings.LastIndexByte(item, ':'); i >= 0 {
		f.Target = item[i+1:]
		item = item[:i]
		if f.Target == "" {
			return f, fmt.Errorf("empty target")
		}
	}
	kindStr, rest, ok := strings.Cut(item, "@")
	if !ok {
		return f, fmt.Errorf("missing @time")
	}
	kind, known := knownKinds[kindStr]
	if !known {
		return f, fmt.Errorf("unknown kind %q", kindStr)
	}
	f.Kind = kind
	// rest = at[+duration][*factor]
	if before, factor, ok := strings.Cut(rest, "*"); ok {
		v, err := strconv.ParseFloat(factor, 64)
		if err != nil || !(v > 0 && v < math.Inf(1)) { // rejects NaN and Inf too
			return f, fmt.Errorf("bad factor %q", factor)
		}
		f.Factor = v
		rest = before
	}
	atStr, durStr, hasDur := strings.Cut(rest, "+")
	at, err := time.ParseDuration(atStr)
	if err != nil || at < 0 {
		return f, fmt.Errorf("bad time %q", atStr)
	}
	f.At = at
	if hasDur {
		d, err := time.ParseDuration(durStr)
		if err != nil || d <= 0 {
			return f, fmt.Errorf("bad duration %q", durStr)
		}
		f.Duration = d
	}
	// Per-kind defaulting and validation.
	switch f.Kind {
	case KindCrash:
		if f.Duration != 0 || f.Factor != 0 {
			return f, fmt.Errorf("crash takes no duration or factor")
		}
	case KindTransfer, KindFetchFail, KindPartition:
		if f.Factor != 0 {
			return f, fmt.Errorf("%s takes no factor", f.Kind)
		}
		if f.Duration == 0 {
			f.Duration = defaultWindow
		}
	case KindFetchSlow, KindStoreSlow:
		if f.Duration == 0 {
			f.Duration = defaultWindow
		}
		if f.Factor == 0 {
			f.Factor = defaultFactor
		}
	case KindReclaim:
		if f.Factor != 0 {
			return f, fmt.Errorf("reclaim takes no factor")
		}
		if f.Duration == 0 {
			f.Duration = defaultGrace
		}
		if f.Target == "" {
			return f, fmt.Errorf("reclaim needs a :device target")
		}
	case KindThrottle:
		if f.Duration == 0 {
			f.Duration = defaultWindow
		}
		if f.Factor == 0 {
			f.Factor = defaultFactor
		}
		if f.Target == "" {
			return f, fmt.Errorf("throttle needs a :device target")
		}
	}
	if (f.Kind == KindPartition || f.Kind == KindStoreSlow) && f.Target != "" {
		return f, fmt.Errorf("%s takes no target", f.Kind)
	}
	return f, nil
}

// FormatSpec renders a schedule back into the ParseSpec grammar.
func FormatSpec(sched []Fault) string {
	parts := make([]string, len(sched))
	for i, f := range sched {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// RandomSchedule draws n faults from rng, targeting the given instance and
// model names, with injection times in [horizon/20, 4*horizon/5] so every
// fault lands while load is still arriving and recovery has room to finish.
// The result is sorted by time and fully determined by the rng state.
func RandomSchedule(rng *rand.Rand, horizon time.Duration, instances, models []string, n int) []Fault {
	if n <= 0 || horizon <= 0 {
		return nil
	}
	lo, hi := horizon/20, horizon*4/5
	if hi <= lo {
		hi = lo + 1
	}
	pick := func(s []string) string {
		if len(s) == 0 {
			return ""
		}
		return s[rng.Intn(len(s))]
	}
	kinds := []Kind{KindCrash, KindTransfer, KindFetchFail, KindFetchSlow, KindPartition, KindStoreSlow}
	if len(instances) > 0 {
		// The spot-market kinds need a concrete device target.
		kinds = append(kinds, KindReclaim, KindThrottle)
	}
	out := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		f := Fault{
			At:   lo + time.Duration(rng.Int63n(int64(hi-lo))),
			Kind: kinds[rng.Intn(len(kinds))],
		}
		switch f.Kind {
		case KindCrash:
			f.Target = pick(instances)
		case KindTransfer:
			f.Target = pick(instances)
			f.Duration = time.Duration(1+rng.Intn(10)) * time.Second
		case KindFetchFail:
			f.Target = pick(models)
			f.Duration = time.Duration(1+rng.Intn(10)) * time.Second
		case KindFetchSlow:
			f.Target = pick(models)
			f.Duration = time.Duration(1+rng.Intn(15)) * time.Second
			f.Factor = 2 + 6*rng.Float64()
		case KindPartition:
			f.Duration = time.Duration(1+rng.Intn(5)) * time.Second
		case KindStoreSlow:
			f.Duration = time.Duration(1+rng.Intn(10)) * time.Second
			f.Factor = 2 + 8*rng.Float64()
		case KindReclaim:
			f.Target = pick(instances)
			f.Duration = time.Duration(1+rng.Intn(8)) * time.Second
		case KindThrottle:
			f.Target = pick(instances)
			f.Duration = time.Duration(2+rng.Intn(20)) * time.Second
			f.Factor = 1.5 + 4*rng.Float64()
		}
		out = append(out, f)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
