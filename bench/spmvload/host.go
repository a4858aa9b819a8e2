package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox's speed moves: for stretches of seconds to minutes the same
// code takes up to 1.5× as long, CPU time and wall clock alike, and two runs
// of one commit then differ by more than any bound the benchmark may set
// (bench/README.md has the runs). This file holds what the tool does about
// its host:
//
//   - hostRef, a reference kernel that belongs to the benchmark and ticks
//     beside every slice of the window and every set-up. Each timed
//     end-to-end metric is restated with it at nominal host speed; the
//     numbers as the clocks read them are printed beside the restated ones.
//     Timing the kernel only while the daemon is idle was tried, so that
//     nothing the daemon does could move it: it then reads 10–20 % faster
//     than under load, wanders by ±10 % between runs whose raw latencies
//     agree to 3 %, and so adds noise instead of removing any.
//   - host.steal_share, the share of the window's CPU time the hypervisor
//     gave to other tenants. A check, not a correction: a window above
//     stealLimit is marked non-comparable.
//   - spinners, which keep a guest's vCPUs awake beside an open loop.

// nominalRefMs is the reference kernel's time on the calibration box in its
// fast state. It only fixes the scale restated metrics are printed in, so
// that they read as milliseconds; it cancels in every comparison.
const nominalRefMs = 0.42

// refEvery is how often the reference kernel runs beside the load: 40 runs
// to a 2 s slice, under 1 % of one core.
const refEvery = 50 * time.Millisecond

// hostRef is the reference kernel: decode a JSON array of 2000 floats and
// sort it. A little parsing, a little branching, a little memory, like the
// daemon's own work, and no code of the repository's.
type hostRef struct {
	js  []byte
	dec []float64
}

func newHostRef() *hostRef {
	rng := rand.New(rand.NewSource(1))
	js := []byte{'['}
	for i := 0; i < 2000; i++ {
		if i > 0 {
			js = append(js, ',')
		}
		js = strconv.AppendFloat(js, float64(rng.Intn(2000)-1000)/1000, 'f', -1, 64)
	}
	return &hostRef{js: append(js, ']'), dec: make([]float64, 0, 2000)}
}

// once runs the kernel and returns how long it took, in milliseconds.
func (h *hostRef) once() float64 {
	t := time.Now()
	h.dec = h.dec[:0]
	if err := json.Unmarshal(h.js, &h.dec); err != nil {
		panic(err) // the input is ours
	}
	sort.Float64s(h.dec)
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

// beside runs f with the kernel ticking beside it, once at the start and
// then every refEvery, and returns the median run's time.
func (h *hostRef) beside(f func()) float64 {
	stop := make(chan struct{})
	runs := make(chan []float64)
	go func() {
		var ms []float64
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			ms = append(ms, h.once())
			select {
			case <-stop:
				runs <- ms
				return
			case <-tick.C:
			}
		}
	}()
	f()
	close(stop)
	return median(<-runs)
}

// speedOf is the host's speed, 1 at nominal, over a stretch in which the
// reference kernel read refMs.
func speedOf(refMs float64) float64 { return nominalRefMs / refMs }

// stealLimit is the steal share above which a window is marked
// non-comparable. A quiet guest reads under 0.005.
const stealLimit = 0.02

// isGuest reports whether the CPUs are a hypervisor's virtual ones: the
// "hypervisor" CPUID bit, which /proc/cpuinfo lists among the flags.
func isGuest() bool {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false
	}
	return cpuinfoHasFlag(raw, "hypervisor")
}

func cpuinfoHasFlag(cpuinfo []byte, flag string) bool {
	for _, line := range strings.Split(string(cpuinfo), "\n") {
		if key, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			for _, f := range strings.Fields(flags) {
				if f == flag {
					return true
				}
			}
			return false // every CPU lists the same flags
		}
	}
	return false
}

// spinners are busy loops under SCHED_IDLE, one per CPU. The scheduler runs
// them only when nothing else wants the CPU and treats a CPU that runs
// nothing else as idle when it places a waking task, so they take nothing
// from the daemon or the generator; what they do is keep a guest's vCPUs
// from halting. A halted vCPU that wakes up waits for the hypervisor to give
// it a host CPU — 15 to 25 ms at a time on this box when its neighbours are
// busy — and an open loop at a quarter of capacity wakes a vCPU for every op,
// so those waits are its p95: 48–59 ms without spinners against 25–27 ms with
// them, runs interleaved, p50 the same. A closed loop keeps the vCPUs busy by
// itself, and a host that is no guest has no vCPU to lose.
//
// They run for every open loop on a guest, not only when steal is seen: a
// 2 s warm-up sees too few wake-ups to tell, and a p95 that reads 25 ms or
// 48 ms by what the warm-up happened to catch cannot be gated.
type spinners []*exec.Cmd

func startSpinners() (spinners, error) {
	var sp spinners
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command("sh", "-c", "while :; do :; done")
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			sp.stop()
			return nil, fmt.Errorf("start spinners: %w", err)
		}
		sp = append(sp, cmd)
		// SCHED_IDLE (5), static priority 0, for the shell's only thread.
		var param struct{ priority int32 }
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(cmd.Process.Pid), 5, uintptr(unsafe.Pointer(&param))); errno != 0 {
			sp.stop()
			return nil, fmt.Errorf("start spinners: sched_setscheduler: %w", errno)
		}
	}
	return sp, nil
}

// stop kills the spinners and waits for each to end.
func (sp spinners) stop() {
	for _, cmd := range sp {
		_ = cmd.Process.Kill() // already-exited is fine
		_ = cmd.Wait()         // reports the kill
	}
}

// hostClock is the guest's view of its CPUs, from the first line of
// /proc/stat, in clock ticks summed over the CPUs: all the time there was,
// and the part of it in which a task wanted a CPU while the hypervisor ran
// someone else.
type hostClock struct{ total, steal float64 }

func readHostClock() (hostClock, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostClock{}, procErr(err)
	}
	return parseHostClock(raw)
}

// parseHostClock parses the aggregate cpu line: user nice system idle iowait
// irq softirq steal. A kernel that reports no steal column reads as none.
func parseHostClock(raw []byte) (hostClock, error) {
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 8 || f[0] != "cpu" {
		return hostClock{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var c hostClock
	// Fields 9 and 10, guest and guest_nice, are already inside user and nice.
	for i := 1; i < len(f) && i <= 8; i++ {
		x, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return hostClock{}, fmt.Errorf("unexpected /proc/stat line %q", line)
		}
		c.total += x
		if i == 8 {
			c.steal = x
		}
	}
	return c, nil
}

// stealSince is the share of all CPU time since the earlier reading that
// the hypervisor withheld.
func (c hostClock) stealSince(before hostClock) float64 {
	if c.total <= before.total {
		return 0
	}
	return (c.steal - before.steal) / (c.total - before.total)
}

// hostState is what a run saw of its host during the measured window.
type hostState struct {
	refMs      float64 // the reference kernel, mean of the window's readings
	stealShare float64
	spinners   bool // the open loop ran beside spinners
}

// notes says in words when the window should not be compared with another
// run's.
func (h hostState) notes() []string {
	var out []string
	if h.stealShare > stealLimit {
		out = append(out, fmt.Sprintf("NON-COMPARABLE: the hypervisor withheld %.1f %% of the window's CPU time (host.steal_share, limit %.0f %%)",
			100*h.stealShare, 100*stealLimit))
	}
	if h.spinners {
		out = append(out, "the host is a guest, so the open loop ran beside idle-priority spinners that keep its vCPUs from halting")
	}
	return out
}
