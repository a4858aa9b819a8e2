package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the checkout that holds
// cmd/spmvd, so the tool runs from the root (bench/run.sh) or from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "spmvd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/spmvd not found above the working directory: run from the repository checkout")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/spmvd from source into outDir and returns the
// binary's path. The go tool's own cache makes a rebuild of unchanged
// source cheap.
func buildDaemon(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "spmvd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/spmvd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/spmvd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one spmvd subprocess on a loopback socket.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	log     *os.File
	exited  chan struct{}
	waitErr error
	readyS  float64 // spawn → first 200 from /readyz
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the daemon binds it; a lost race shows as the daemon
// failing to become ready, with its log naming the bind error.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon spawns spmvd with the flags every workload shares plus the
// workload's own, stdout and stderr captured in logPath, and waits for
// /readyz. On any error the process is already stopped.
func startDaemon(ctx context.Context, bin, logPath string, hc *http.Client, extra []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	// -corpus 24 -no-retrain: the deterministic bootstrap model, and no
	// off-path exploration adding noise to the window.
	args := append([]string{"-addr", addr, "-corpus", "24", "-no-retrain"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // no orphan even if spmvload is killed outright
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start spmvd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(ctx, hc); err != nil {
		d.stop()
		return nil, fmt.Errorf("%w (daemon log: %s)", err, logPath)
	}
	d.readyS = time.Since(start).Seconds()
	return d, nil
}

func (d *daemon) waitReady(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(90 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("spmvd exited before it was ready: %v", d.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("spmvd not ready after 90s")
		}
	}
}

// stop sends SIGTERM and waits for the process to end, escalating to
// SIGKILL after the daemon's own 15 s drain budget. It returns only once
// the process is gone, so no run leaves an orphan.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// clockTickMs is the length of one /proc CPU-time tick. USER_HZ is 100 on
// every Linux ABI Go supports, and reading it properly needs cgo.
const clockTickMs = 10.0

// cpuMs is the daemon's cumulative user+system CPU time.
func (d *daemon) cpuMs() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, procErr(err)
	}
	return parseStatCPU(raw)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(raw []byte) (float64, error) {
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	return float64(utime+stime) * clockTickMs, nil
}

// rssHWMMb is the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) rssHWMMb() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, procErr(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	return 0, errors.New("VmHWM missing from /proc/<pid>/status")
}

func procErr(err error) error {
	return fmt.Errorf("daemon CPU and memory are read from /proc/<pid>, which is unavailable here (%w): "+
		"daemon_cpu_ms_per_op and daemon_rss_mb need Linux procfs", err)
}
