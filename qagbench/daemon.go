package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// caller sends one request to a qagviewd: over loopback HTTP to the daemon
// process in measured runs, or straight into an in-process Handler in the
// traced replay.
type caller interface {
	call(method, path string, body []byte) (status int, reply []byte, err error)
}

type httpCaller struct {
	base string
	hc   *http.Client
}

func newHTTPCaller(base string, conns int) *httpCaller {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &httpCaller{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *httpCaller) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

type inprocCaller struct{ h http.Handler }

func (c inprocCaller) call(method, path string, body []byte) (int, []byte, error) {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes(), nil
}

// callJSON sends a request, requires want as the status, and decodes the
// reply into out (when non-nil).
func callJSON(c caller, method, path string, body []byte, want int, out any) error {
	code, reply, err := c.call(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(reply))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(reply, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

// daemon is one qagviewd process listening on loopback.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	exited  chan error
	once    sync.Once
}

// startDaemon launches bin with args on a free loopback port and waits
// until /healthz answers. The child is killed if the benchmark dies.
func startDaemon(bin, dir string, args ...string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logPath := filepath.Join(dir, "qagviewd-"+strconv.Itoa(time.Now().Nanosecond())+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("qagviewd exited during start-up (%v): %s", err, d.logTail())
		default:
		}
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
	d.stop()
	return nil, fmt.Errorf("qagviewd did not answer /healthz within 60s: %s", d.logTail())
}

// stop sends SIGTERM (graceful drain), escalates to SIGKILL after 20s, and
// waits for the process to exit. Calls after the first do nothing.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	})
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpuTime returns the process's user+system CPU time from /proc.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// cpuTicks returns the machine's steal and total CPU ticks from /proc/stat.
// Steal is time the hypervisor ran something else while a virtual CPU of
// this machine wanted to run.
func cpuTicks() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
