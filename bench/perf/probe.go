package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"time"
)

// probeRef is what the speed probe costs in CPU time on the reference host.
// The time metrics (setup_s, cpu_ms_per_req) are reported as measured times
// scaled by probeRef over the probe's cost measured beside them, that is, in
// the reference host's time. On a shared host whose speed drifts by a third
// within minutes, this cut the ten-run quartile spread of a paper-config
// serve from 17% to 5%. Raw values are printed above the result line.
const probeRef = 200 * time.Millisecond

type probeNode struct {
	next *probeNode
	key  int64
	pad  [5]int64
}

type probeHeap []*probeNode

func (h probeHeap) Len() int           { return len(h) }
func (h probeHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h probeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *probeHeap) Push(x any)        { *h = append(*h, x.(*probeNode)) }
func (h *probeHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}

var probeSink int64

// runProbe runs a fixed workload shaped like the simulator's hot path (small
// allocations, a binary-heap queue, map churn, pointer chasing over about
// 30 MB at scale 1) and returns the process CPU time it took. It runs no
// program code, so a change to the program cannot move it.
func runProbe(scale float64) time.Duration {
	runtime.GC()
	start := cpuTime()
	rng := rand.New(rand.NewSource(1))
	index := map[int64]*probeNode{}
	var queue probeHeap
	var chain *probeNode
	for i := 0; i < int(400_000*scale); i++ {
		n := &probeNode{key: rng.Int63n(1 << 30), next: chain}
		chain = n
		heap.Push(&queue, n)
		index[n.key&0xffff] = n
		if queue.Len() > 2000 {
			probeSink += heap.Pop(&queue).(*probeNode).key
		}
	}
	for pass := 0; pass < 8; pass++ {
		for n := chain; n != nil; n = n.next {
			probeSink += n.key
		}
	}
	return cpuTime() - start
}

// probe runs the probe, shrunk by the run's scale, and records its cost.
func (r *run) probe() time.Duration {
	p := runProbe(r.scale)
	r.probes = append(r.probes, p)
	return p
}

// speed is the host's speed relative to the reference host, from probes
// costing p (above 1 is faster). A measured time times speed is the time the
// reference host would have taken.
func (r *run) speed(p time.Duration) float64 { return float64(probeRef) * r.scale / float64(p) }

// runSpeed is the speed from the median probe of the run.
func (r *run) runSpeed() float64 {
	return r.speed(time.Duration(medianOf(r.probes, func(p time.Duration) float64 { return float64(p) })))
}
