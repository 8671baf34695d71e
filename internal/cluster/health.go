package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"aegaeon/internal/fault"
	"aegaeon/internal/sim"
)

// The cluster is the injection seam for chaos harnesses.
var _ fault.Surface = (*Cluster)(nil)

// Health monitoring and failover (Fig. 5: the proxy's metadata sync exists
// "to ensure load balancing and fault tolerance"). Every instance maintains a
// lease in the metadata store, renewed at half its TTL; the proxy polls the
// leases and, when one has expired AND the instance is confirmed dead (the
// false-failover guard: a store latency spike alone must never trigger a
// failover of a healthy instance), claims the failover through a
// compare-and-swap — so racing proxies serialize and exactly one performs the
// recovery — and re-dispatches the dead instance's orphans: host-resident KV
// resumes decoding elsewhere, VRAM-only KV is re-materialized via prefill.
//
// Health traffic is strictly opt-in (StartHealth): the renewal and monitor
// loops self-reschedule, so a batch simulation that never calls StartHealth
// stays event-finite and sim.Engine.Run terminates as before. Callers that do
// start it must eventually call StopHealth (the live gateway does so on
// shutdown; batch harnesses schedule it at the horizon).

// Health timings, which only matter once StartHealth is called.
const (
	// leaseTTL is how long an instance's health lease stays valid without
	// renewal; instances renew every leaseTTL/2.
	leaseTTL   = 3 * time.Second
	healthPoll = time.Second // the proxy's monitor interval
)

func leaseKey(dep, instance string) string    { return "lease/" + dep + "/" + instance }
func failoverKey(dep, instance string) string { return "failover/" + dep + "/" + instance }

// StartHealth begins lease renewal for every instance and the proxy's health
// monitor. Must run on the simulation goroutine. Idempotent while running.
func (c *Cluster) StartHealth() {
	if c.healthOn {
		return
	}
	c.healthOn = true
	c.healthStop = false
	for _, d := range c.deps {
		for _, name := range d.System.InstanceNames() {
			d, name := d, name
			c.renewLease(d, name, 0)
		}
	}
	c.monitor()
}

// StopHealth halts lease renewal and monitoring: the already-scheduled loop
// events fire once more and return without rescheduling, so the event queue
// drains. Must run on the simulation goroutine.
func (c *Cluster) StopHealth() {
	c.healthStop = true
	c.healthOn = false
}

// Failovers returns how many instance failovers the proxy has claimed and
// recovered.
func (c *Cluster) Failovers() int { return c.failovers }

// renewLease writes the instance's lease (value: expiry in virtual
// nanoseconds) and reschedules itself at TTL/2. A crashed instance stops
// heartbeating — exactly how the failure becomes visible. Store partitions
// are retried with exponential backoff; the lease may expire meanwhile, but
// the monitor's liveness check keeps that from triggering a false failover.
func (c *Cluster) renewLease(dep *Deployment, name string, attempt int) {
	if c.healthStop || !dep.System.AliveNamed(name) {
		return
	}
	expiry := c.eng.Now() + leaseTTL
	c.store.Set(leaseKey(dep.Name, name), strconv.FormatInt(int64(expiry), 10), func(err error) {
		if c.healthStop || !dep.System.AliveNamed(name) {
			return
		}
		if err != nil {
			c.cfg.Faults.CountStoreFailure()
			next := attempt + 1
			if next >= c.cfg.Faults.MaxAttempts() {
				next = 0 // cool-down re-arm: heartbeats never wedge
			}
			delay := c.cfg.Faults.RetryDelay(attempt)
			c.cfg.Faults.CountStoreRetry()
			c.cfg.Obs.Retry(dep.Name+"/"+name, "lease-renew", c.eng.Now())
			c.eng.After(delay, func() { c.renewLease(dep, name, next) })
			return
		}
		c.eng.After(leaseTTL/2, func() { c.renewLease(dep, name, 0) })
	})
}

// monitor is the proxy's health poll: scan every lease, and for each expired
// one whose instance is confirmed dead, claim the failover via CAS and
// recover the orphans. Runs every healthPoll until StopHealth.
func (c *Cluster) monitor() {
	if c.healthStop {
		return
	}
	for _, d := range c.deps {
		for _, name := range d.System.InstanceNames() {
			d, name := d, name
			c.store.GetE(leaseKey(d.Name, name), func(v string, ok bool, err error) {
				if c.healthStop {
					return
				}
				if err != nil {
					// Partitioned store: cannot judge liveness this round; the
					// next poll retries.
					c.cfg.Faults.CountStoreFailure()
					return
				}
				if !ok {
					return // never leased yet (health just started)
				}
				expiry, perr := strconv.ParseInt(v, 10, 64)
				if perr != nil || sim.Time(expiry) > c.eng.Now() {
					return // lease still live
				}
				// Expired lease. False-failover guard: confirm the instance is
				// actually dead before stealing its work.
				if d.System.AliveNamed(name) {
					return
				}
				c.store.CompareAndSwap(failoverKey(d.Name, name), "", "proxy",
					func(swapped bool, err error) {
						if err != nil || c.healthStop {
							return
						}
						if !swapped {
							// The claim may already be ours from an earlier
							// poll. Recovery is idempotent (an empty orphan
							// stash is a no-op), so the owner re-enters instead
							// of leaving later orphans stranded forever.
							c.store.GetE(failoverKey(d.Name, name),
								func(v string, ok bool, err error) {
									if err != nil || !ok || v != "proxy" || c.healthStop {
										return
									}
									if d.System.OrphanedOf(name) == 0 {
										return
									}
									d.System.RecoverOrphansOf(name)
									c.failovers++
								})
							return
						}
						d.System.RecoverOrphansOf(name)
						c.failovers++
					})
			})
		}
	}
	c.eng.After(healthPoll, func() { c.monitor() })
}

// resolveInstance maps a fault target to its owning deployment and instance
// name. Target is either "deployment/instance" (e.g. "tp1/decode0") or a
// bare instance name, which matches the first deployment owning an instance
// of that name.
func (c *Cluster) resolveInstance(target string) (*Deployment, string, error) {
	if dep, inst, ok := strings.Cut(target, "/"); ok {
		for _, d := range c.deps {
			if d.Name == dep {
				return d, inst, nil
			}
		}
		return nil, "", fmt.Errorf("cluster: no deployment %q", dep)
	}
	for _, d := range c.deps {
		for _, name := range d.System.InstanceNames() {
			if name == target {
				return d, target, nil
			}
		}
	}
	return nil, "", fmt.Errorf("cluster: no instance %q", target)
}

// Crash fail-stops an instance; the health monitor recovers its orphans
// once the instance's lease expires.
func (c *Cluster) Crash(target string) error {
	d, inst, err := c.resolveInstance(target)
	if err != nil {
		return err
	}
	return d.System.CrashInstance(inst)
}

// Reclaim delivers a spot preemption notice: grace to evacuate, then hard
// revocation. Needs Config.Market.
func (c *Cluster) Reclaim(target string, grace sim.Time) error {
	if c.cfg.Market == nil {
		return fmt.Errorf("cluster: no market model configured")
	}
	d, inst, err := c.resolveInstance(target)
	if err != nil {
		return err
	}
	return d.System.ReclaimInstance(inst, grace)
}

// Throttle applies a thermal-throttle slowdown to one instance for d.
func (c *Cluster) Throttle(target string, factor float64, d sim.Time) error {
	dep, inst, err := c.resolveInstance(target)
	if err != nil {
		return err
	}
	return dep.System.ThrottleInstance(inst, factor, d)
}

// PartitionStore makes the metadata store unreachable for d.
func (c *Cluster) PartitionStore(d sim.Time) error {
	c.store.Partition(d)
	return nil
}

// SlowStore multiplies the metadata store's RTT by factor for d.
func (c *Cluster) SlowStore(factor float64, d sim.Time) error {
	c.store.SlowBy(factor, d)
	return nil
}
