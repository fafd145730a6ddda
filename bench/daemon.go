package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// buildTdxd compiles ./cmd/tdxd of the tree at root into out.
func buildTdxd(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/tdxd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build tdxd: %w", err)
	}
	return nil
}

// daemon is one tdxd process on a loopback port, started with default
// flags.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	done chan struct{} // closed once the process has been waited for
}

// startDaemon boots tdxd and waits for /healthz. A port taken between
// probing and binding makes tdxd exit, so the boot is retried on a
// fresh port.
func startDaemon(bin string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, "-addr", "127.0.0.1:"+port)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		// The daemon must not outlive the benchmark, even when the
		// benchmark is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start tdxd: %w", err)
		}
		d := &daemon{cmd: cmd, base: "http://127.0.0.1:" + port, done: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // the exit status is irrelevant once we stop it
			close(d.done)
		}()
		if lastErr = d.awaitHealthy(10 * time.Second); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, fmt.Errorf("tdxd never became healthy: %w", lastErr)
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("probe a free port: %w", err)
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

func (d *daemon) awaitHealthy(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-d.done:
			return errors.New("tdxd exited during start-up")
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks tdxd to shut down gracefully, kills it if it lingers, and
// returns once the process has been reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, fmt.Errorf("read tdxd CPU time: %w", err)
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15, in clock ticks
	// (USER_HZ, 100 per second on Linux).
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse tdxd CPU time: %w", err)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSS returns the daemon's peak resident set size in MiB (VmHWM).
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, fmt.Errorf("read tdxd peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// metrics scrapes the daemon's /metrics counters.
func (c *client) metrics() (map[string]float64, error) {
	st, body, _, err := c.do("GET", "/metrics", "", nil)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", st)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: %q: %w", line, err)
		}
		out[name] = v
	}
	return out, nil
}

// register compiles a mapping on the daemon and returns its hash.
func (c *client) register(mappingText string) (string, error) {
	st, body, _, err := c.do("POST", "/v1/mappings", "text/plain", []byte(mappingText))
	if err != nil {
		return "", fmt.Errorf("register mapping: %w", err)
	}
	if st != http.StatusCreated {
		return "", fmt.Errorf("register mapping: status %d: %s", st, body)
	}
	var resp struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Hash == "" {
		return "", fmt.Errorf("register mapping: bad response %q: %v", body, err)
	}
	return resp.Hash, nil
}
