package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples a quantile above the median needs beyond
// it: p99 refuses fewer than 1000 samples rather than report noise.
const minTail = 10

// quantile returns the q-quantile of xs by the nearest-rank rule,
// refusing a quantile above the median with fewer than tail samples
// beyond it.
func quantile(xs []float64, q float64, tail int) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	if q > 0.5 && float64(n)*(1-q) < float64(tail)-1e-6 {
		return 0, fmt.Errorf("p%g needs at least %.0f samples, have %d", q*100, math.Ceil(float64(tail)/(1-q)-1e-6), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], nil
}

// sliceQuantile cuts xs, which must be in time order, into consecutive
// slices just large enough for the q-quantile (1000 samples for p99;
// the last partial slice joins its predecessor) and returns the median
// of the slices' q-quantiles. One burst — a collection cycle meeting two
// slow misses, a noisy neighbour — then spoils one slice instead of
// setting the quantile of the whole window.
func sliceQuantile(xs []float64, q float64, tail int) (float64, error) {
	per := int(math.Ceil(float64(tail)/(1-q) - 1e-6))
	if per < 1 || per > len(xs) {
		return quantile(xs, q, tail)
	}
	var qs []float64
	for start := 0; start+per <= len(xs); start += per {
		end := start + per
		if len(xs)-end < per {
			end = len(xs)
		}
		v, err := quantile(xs[start:end], q, tail)
		if err != nil {
			return 0, err
		}
		qs = append(qs, v)
	}
	return median(qs), nil
}

func median(xs []float64) float64 {
	m, _ := quantile(xs, 0.5, 0) // only empty input errors; callers guard
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// so a spread computed here matches one computed from the same values
// there. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// usage is the process's resource counters at one instant.
type usage struct {
	cpu    time.Duration // user + system
	alloc  uint64        // cumulative heap bytes allocated
	gcs    uint32
	wallAt time.Time
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:  ms.TotalAlloc,
		gcs:    ms.NumGC,
		wallAt: time.Now(),
	}
}

// peakRSS returns the process's resident-set high-water mark (VmHWM) in
// MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// exposition is one scrape of a Prometheus text endpoint: sample value
// by series ("name" or "name{labels}").
type exposition map[string]float64

func scrape(url string) (exposition, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", url, resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed exposition line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta sums a series' growth between two scrapes of several servers.
func delta(before, after []exposition, series string) float64 {
	var d float64
	for i := range after {
		d += after[i][series] - before[i][series]
	}
	return d
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
