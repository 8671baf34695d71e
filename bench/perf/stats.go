package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place; it returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// spreads printed here match the ones computed over result files.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return math.NaN(), math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// medianOf maps each sample through f and returns the median.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// usage is a snapshot of the process counters that a measured interval is
// the difference of.
type usage struct {
	wall     time.Time
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
}

func snapUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		wall:     time.Now(),
		cpu:      cpuTime(),
		mallocs:  m.Mallocs,
		bytes:    m.TotalAlloc,
		gcCycles: m.NumGC,
		gcPause:  time.Duration(m.PauseTotalNs),
	}
}

// interval is what the process spent between two usage snapshots.
type interval struct {
	wall, cpu, gcPause time.Duration
	mallocs, bytes     uint64
	gcCycles           uint32
}

func (u usage) until(v usage) interval {
	return interval{
		wall:     v.wall.Sub(u.wall),
		cpu:      v.cpu - u.cpu,
		gcPause:  v.gcPause - u.gcPause,
		mallocs:  v.mallocs - u.mallocs,
		bytes:    v.bytes - u.bytes,
		gcCycles: v.gcCycles - u.gcCycles,
	}
}
