package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// env is the provenance header every result carries: a number without
// its commit, machine and settings cannot be compared with another.
type env struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	GOGC       string  `json:"gogc"`
}

func environment(root string, seed int64, seconds float64) env {
	e := env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Seconds:    seconds,
		GOGC:       os.Getenv("GOGC"),
	}
	if e.GOGC == "" {
		e.GOGC = "100 (default)"
	}
	// Only ask git when the checkout is one: the driver's copy is not,
	// and git would otherwise search the directories above it.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return e
}

func (e env) print(w *os.File) {
	dirty := ""
	if e.Dirty {
		dirty = "+dirty"
	}
	fmt.Fprintf(w, "# commit %s%s  %s  GOMAXPROCS=%d nproc=%d  GOGC=%s\n", e.Commit, dirty, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.GOGC)
	fmt.Fprintf(w, "# cpu %q  seed=%d seconds=%g\n", e.CPUModel, e.Seed, e.Seconds)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
