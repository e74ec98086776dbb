package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"graphmat/internal/kernels"
)

// envBlock records where a result was taken; every result record carries it.
type envBlock struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"`
	Kernels    string `json:"kernels_backend"`
	Seed       uint64 `json:"seed"`
	Smoke      bool   `json:"smoke,omitempty"`
}

func captureEnv(c *config) *envBlock {
	return &envBlock{
		Commit:     gitCommit(c.root),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
		Kernels:    kernels.Active().String(),
		Seed:       c.seed,
		Smoke:      c.smoke,
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// repository (the driver's checkouts are plain directories).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes reads the size of cpu0's highest-level cache from sysfs; 0 when
// the box does not say.
func llcBytes() int64 {
	var best int64
	bestLevel := 0
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i)
		lvl, err := os.ReadFile(dir + "/level")
		if err != nil {
			break
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lvl)))
		raw, err := os.ReadFile(dir + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err == nil && level >= bestLevel {
			best, bestLevel = n*mult, level
		}
	}
	return best
}
