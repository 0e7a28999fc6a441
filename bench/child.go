package main

import (
	"bufio"
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

// buildDir and outDir are relative to the checkout root the benchmark runs
// from; both are git-ignored.
const (
	buildDir = ".bench_build"
	outDir   = "bench/out"
)

// buildCornetd compiles ./cmd/cornetd from source into buildDir and returns
// the binary's path. Go's build cache makes every call after the first a
// staleness check.
func buildCornetd(ctx context.Context) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(buildDir, "cornetd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/cornetd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cornetd: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one running cornetd.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	logPath string
	exited  chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// createLog truncates the file a child's output goes to.
func createLog(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return os.Create(path)
}

// startChild execs cornetd on a free loopback port with its stdout and
// stderr captured to logf, which it closes, and returns once /healthz
// answers ok.
func startChild(ctx context.Context, bin string, flags []string, logf *os.File) (*child, error) {
	defer logf.Close() // the child holds its own descriptor
	logPath := logf.Name()
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cornetd: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("cornetd exited before /healthz answered: %v (see %s)", c.waitErr, logPath)
		case <-ctx.Done():
			c.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("cornetd /healthz not ok after 20s (see %s)", logPath)
		}
	}
}

// stop ends the child by PID — SIGTERM, then SIGKILL if the drain stalls —
// waits for it, and reports anything unclean: a non-zero exit or a panic in
// its log. It returns the child's peak resident set in MiB.
func (c *child) stop() (peakRSSMiB float64, err error) {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only when already gone
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
		err = errors.New("cornetd did not drain within 10s of SIGTERM; killed")
	}
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err == nil && c.waitErr != nil {
		err = fmt.Errorf("cornetd exit: %w (see %s)", c.waitErr, c.logPath)
	}
	if err == nil {
		err = scanLogForPanic(c.logPath)
	}
	return peakRSSMiB, err
}

// scanLogForPanic fails when the child's log holds a Go panic or fatal error.
func scanLogForPanic(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte("panic:")) || bytes.HasPrefix(line, []byte("fatal error:")) {
			return fmt.Errorf("cornetd log %s: %s", path, line)
		}
	}
	return sc.Err()
}

// cpuSeconds returns the CPU time the child's threads have run so far, in
// seconds: the first field of /proc/<pid>/task/*/schedstat, which counts
// nanoseconds where utime+stime in /proc/<pid>/stat count 10 ms ticks — too
// coarse for a window in which exec_composed burns a quarter of a second.
func (c *child) cpuSeconds() (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", c.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d: %v", c.cmd.Process.Pid, err)
	}
	var ns int64
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		onCPU, _, _ := strings.Cut(string(raw), " ")
		n, err := strconv.ParseInt(onCPU, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %q", t, raw)
		}
		ns += n
	}
	return float64(ns) / 1e9, nil
}

// routeTime scrapes /metrics and returns the HTTP middleware's cumulative
// latency sum (seconds) and request count for one route.
func (c *child) routeTime(route string) (sum float64, count float64, err error) {
	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	label := `{route="` + route + `"}`
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		switch name {
		case "cornet_http_request_duration_seconds_sum" + label:
			sum, err = strconv.ParseFloat(val, 64)
		case "cornet_http_request_duration_seconds_count" + label:
			count, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("parse %q: %w", line, err)
		}
	}
	return sum, count, sc.Err()
}
