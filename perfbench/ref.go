package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts: the
// same fixed loop has taken up to twice as long a few minutes later. A
// run's wall times therefore carry the host's speed as well as the
// program's. To take the host out, a run keeps a child process that
// times a fixed reference task of the benchmark's own on request. The
// measured window is cut into segments of about segmentS seconds with a
// reference sample before the first and after each, and every time
// measured in a segment is scaled by refNominalS over the mean of the
// two samples around it; set-up is bracketed the same way. The timing
// metrics thus read in seconds on a host where the reference task takes
// refNominalS, and the raw wall times are logged next to them. The task
// uses none of the program's code, so a change to the program moves the
// scaled times as it moves the raw ones.

// refNominalS is the reference task's time on a quiet host of the kind
// the benchmark was written on (2 vCPUs of an Intel Xeon), so scaled
// times read close to wall times there.
const refNominalS = 0.040

// segmentS is the target length of one measured segment: short enough
// to follow the host's drift, long enough that the samples cost under a
// tenth of the window.
const segmentS = 0.5

// refTable is the reference task's random-access table, 16 MiB: larger
// than the caches, as the graph passes on cold_ols_400k are.
const refTable = 1 << 21

// refTask is a fixed amount of work in three parts, like the program's
// own: random read-modify-write over a table larger than the caches
// (CSR builds and support counting), formatting and parsing numbers
// with allocation (the text graph format and the JSON API), and a
// comparison sort (the weight order).
func refTask(table []uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for range 3 * refTable {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&(refTable-1)] += x
	}
	var sum uint64
	var buf []byte
	for i := range 60000 {
		buf = strconv.AppendFloat(buf[:0], float64(x>>11)/float64(1<<53), 'g', -1, 64)
		s := string(buf) + strconv.Itoa(i)
		f, _ := strconv.ParseFloat(s[:len(buf)], 64)
		sum += uint64(f*1e6) + uint64(len(s))
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	keys := make([]uint64, 1<<17)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = x
	}
	slices.Sort(keys)
	return sum + keys[len(keys)/2] + table[sum&(refTable-1)]
}

// refChild serves reference samples: after one untimed pass that faults
// its table in, it answers every line read from in with the seconds one
// run of the task took, until in closes.
func refChild(args []string, in io.Reader, out io.Writer) error {
	if len(args) != 0 {
		return fmt.Errorf("ref takes no arguments, got %q", args)
	}
	table := make([]uint64, refTable)
	sink := refTask(table)
	lines := bufio.NewScanner(in)
	for lines.Scan() {
		start := time.Now()
		sink += refTask(table)
		if _, err := fmt.Fprintln(out, time.Since(start).Seconds()); err != nil {
			return err
		}
	}
	if sink == 0 { // keeps the work from being optimised away
		fmt.Fprintln(os.Stderr, "reference task: zero checksum")
	}
	return lines.Err()
}

// hostClock is a running reference child and the samples taken from it.
type hostClock struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	stderr bytes.Buffer
	refs   []float64
}

func startHostClock() (*hostClock, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &hostClock{cmd: exec.Command(self)}
	h.cmd.Env = append(os.Environ(), childEnv+"=ref")
	h.cmd.Stderr = &h.stderr
	if h.in, err = h.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := h.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	h.out = bufio.NewReader(stdout)
	if err := h.cmd.Start(); err != nil {
		return nil, err
	}
	return h, nil
}

// sample times the reference task once and records the time.
func (h *hostClock) sample() error {
	if _, err := io.WriteString(h.in, "\n"); err != nil {
		return fmt.Errorf("reference task: %v: %s", err, bytes.TrimSpace(h.stderr.Bytes()))
	}
	line, err := h.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("reference task: %v: %s", err, bytes.TrimSpace(h.stderr.Bytes()))
	}
	t, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		return fmt.Errorf("reference task: %w", err)
	}
	h.refs = append(h.refs, t)
	return nil
}

// scale is the factor for times measured between the last two samples.
func (h *hostClock) scale() float64 {
	n := len(h.refs)
	return refNominalS / ((h.refs[n-2] + h.refs[n-1]) / 2)
}

// stop ends the reference child and waits for it.
func (h *hostClock) stop() error {
	h.in.Close()
	if err := h.cmd.Wait(); err != nil {
		return fmt.Errorf("reference task: %v: %s", err, bytes.TrimSpace(h.stderr.Bytes()))
	}
	return nil
}

// segmented is what a workload measured over its window, scaled to the
// reference host.
type segmented struct {
	times []float64 // per-query times, scaled
	busyS float64   // the window's wall time, scaled
	wallS float64   // the window's wall time
	raw   []float64 // per-query wall times
}

// measure runs the window as segments of about segmentS seconds, with a
// reference sample before the first and after each. seg runs queries
// until its deadline (at least one) and returns their wall times.
// Nothing else runs while a sample is taken.
func (e *runEnv) measure(seg func(deadline time.Time) ([]float64, error)) (*segmented, error) {
	m := &segmented{}
	first := len(e.clock.refs)
	if err := e.clock.sample(); err != nil {
		return nil, err
	}
	for len(m.raw) == 0 || m.wallS < e.cfg.seconds {
		t0 := time.Now()
		times, err := seg(t0.Add(time.Duration(segmentS * float64(time.Second))))
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0).Seconds()
		if err := e.clock.sample(); err != nil {
			return nil, err
		}
		k := e.clock.scale()
		for _, t := range times {
			m.times = append(m.times, t*k)
		}
		m.raw = append(m.raw, times...)
		m.busyS += wall * k
		m.wallS += wall
	}
	refs := e.clock.refs[first:]
	e.logf("reference task: %d samples, median %.4fs (nominal %.3fs); raw query p50 %.4fs p90 %.4fs over %.1fs busy",
		len(refs), median(refs), refNominalS, median(m.raw), quantile(m.raw, 0.9), m.wallS)
	return m, nil
}

// metrics fills the latency and throughput metrics.
func (m *segmented) metrics(out map[string]float64) {
	out["query_s_p50"] = median(m.times)
	out["query_s_p90"] = quantile(m.times, 0.9)
	out["queries_per_s"] = float64(len(m.times)) / m.busyS
}

// setupTimes times set-up reps times, each between two reference
// samples, and returns the median scaled to the reference host. The raw
// median is logged. A non-nil between runs untimed before every set-up
// but the first.
func (e *runEnv) setupTimes(reps int, between func() error, once func(i int) error) (float64, error) {
	if err := e.clock.sample(); err != nil {
		return 0, err
	}
	var raw, scaled []float64
	for i := range reps {
		if i > 0 && between != nil {
			if err := between(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if err := once(i); err != nil {
			return 0, err
		}
		t := time.Since(start).Seconds()
		if err := e.clock.sample(); err != nil {
			return 0, err
		}
		raw, scaled = append(raw, t), append(scaled, t*e.clock.scale())
	}
	e.logf("set-up: %d times, raw median %.4fs", reps, median(raw))
	return median(scaled), nil
}
