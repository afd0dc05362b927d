package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usableCPUs is what `nproc` would print inside a container: the
// affinity mask, further capped by the cgroup v2 CPU quota. Go 1.24
// sizes GOMAXPROCS from the affinity mask alone, so the benchmark sets
// it explicitly to keep a quota-limited container from oversubscribing.
func usableCPUs() int {
	n := runtime.NumCPU()
	data, err := os.ReadFile("/sys/fs/cgroup/cpu.max")
	if err != nil {
		return n
	}
	f := strings.Fields(string(data))
	if len(f) != 2 || f[0] == "max" {
		return n
	}
	quota, err1 := strconv.ParseFloat(f[0], 64)
	period, err2 := strconv.ParseFloat(f[1], 64)
	if err1 != nil || err2 != nil || period <= 0 {
		return n
	}
	if q := int(math.Ceil(quota / period)); q >= 1 && q < n {
		return q
	}
	return n
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: the steal
// column and the sum of all columns, in clock ticks.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// phaseMeter brackets a measured phase: wall, CPU, allocation, GC and
// hypervisor-steal deltas between begin and end.
type phaseMeter struct {
	start        time.Time
	cpu          float64
	mem          runtime.MemStats
	steal, ticks float64
}

type phaseDelta struct {
	wall, cpu      float64
	mallocs, bytes float64
	gcCycles       float64
	gcPauseMS      float64
	stealShare     float64
}

func beginPhase() *phaseMeter {
	m := &phaseMeter{}
	runtime.GC() // start every measured phase from a collected heap
	runtime.ReadMemStats(&m.mem)
	m.steal, m.ticks = cpuTicks()
	m.cpu = cpuSeconds()
	m.start = time.Now()
	return m
}

func (m *phaseMeter) end() phaseDelta {
	d := phaseDelta{wall: time.Since(m.start).Seconds(), cpu: cpuSeconds() - m.cpu}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	steal, ticks := cpuTicks()
	d.mallocs = float64(after.Mallocs - m.mem.Mallocs)
	d.bytes = float64(after.TotalAlloc - m.mem.TotalAlloc)
	d.gcCycles = float64(after.NumGC - m.mem.NumGC)
	d.gcPauseMS = float64(after.PauseTotalNs-m.mem.PauseTotalNs) / 1e6
	d.stealShare = ratio(steal-m.steal, ticks-m.ticks)
	return d
}

// environment records what a number was measured on.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (the driver's copy is not one) the commit
	// stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}
