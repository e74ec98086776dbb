package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Daemon lifecycle: build graphmatd once per process, start it on a free
// loopback port with its stderr captured to a file, wait for /v1/healthz,
// read its peak RSS before it goes away, SIGKILL it for the restart test.

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// buildDaemon compiles ./cmd/graphmatd from the repository at root into
// <root>/.bench_build, once per process. The Go build cache location comes
// from the environment (run.sh points it inside the checkout).
func buildDaemon(root string) (string, error) {
	buildOnce.Do(func() {
		dir := filepath.Join(root, ".bench_build")
		if buildErr = os.MkdirAll(dir, 0o755); buildErr != nil {
			return
		}
		buildPath = filepath.Join(dir, "graphmatd")
		cmd := exec.Command("go", "build", "-o", buildPath, "./cmd/graphmatd")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building graphmatd: %v\n%s", err, out)
		}
	})
	return buildPath, buildErr
}

// daemon is one running graphmatd child.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	log     *os.File
	client  *http.Client
	started time.Time
	waited  chan struct{} // closed once cmd.Wait returned
}

// freePort asks the kernel for an unused loopback port. The port is released
// before the daemon binds it; a collision in that window fails the healthz
// wait and surfaces the daemon's own bind error.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with args plus -addr/-quiet and returns once
// /v1/healthz answers (graphs named by -graph are loaded before the daemon
// listens, so healthy implies loaded). d.started is the moment of exec.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{
		base:    "http://" + addr,
		logPath: logPath,
		log:     logf,
		waited:  make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
	}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr, "-quiet"}, args...)...)
	d.cmd.Stderr = logf
	d.cmd.Stdout = logf
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // exit status is irrelevant: every stop path kills
		close(d.waited)
	}()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.waited:
			return nil, fmt.Errorf("graphmatd exited during start-up; stderr:\n%s", d.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("graphmatd not healthy after 120s; stderr:\n%s", d.logTail())
		}
	}
}

// logTail returns the end of the captured stderr, for error messages.
func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return err.Error()
	}
	if len(data) > 4096 {
		data = data[len(data)-4096:]
	}
	return string(data)
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MB. Call it
// before kill: /proc/<pid> vanishes with the process.
func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// peakRSSMB reads VmHWM of pid from /proc.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// kill SIGKILLs the daemon and waits until the process is gone. Safe to call
// more than once.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-d.waited
	d.client.CloseIdleConnections()
	d.log.Close()
}

// httpPost sends body to url and reads the reply to its last byte. With keep
// the reply body is returned; without, it is dropped as it arrives — the
// measurement path, where the generator must not compete with the daemon for
// the cores by buffering megabytes it will not look at.
func httpPost(ctx context.Context, client *http.Client, url string, body []byte, keep bool) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if !keep {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// post sends body to path on the daemon; see httpPost.
func (d *daemon) post(ctx context.Context, path string, body []byte, keep bool) (int, []byte, error) {
	return httpPost(ctx, d.client, d.base+path, body, keep)
}

// getJSON decodes a GET reply into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
