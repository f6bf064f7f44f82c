package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// fingerprint identifies the host and inputs a run measured. Timings
// from two runs are comparable only when the host fields agree; the
// engine counters are comparable only when the workload and seed agree
// as well.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostFingerprint(workload string, seed int64) fingerprint {
	return fingerprint{
		Workload:   workload,
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown"
// where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostMismatch lists the host fields on which a and b differ.
func hostMismatch(a, b fingerprint) []string {
	var d []string
	add := func(field string, x, y any) {
		if x != y {
			d = append(d, fmt.Sprintf("%s %v != %v", field, x, y))
		}
	}
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("nproc", a.NProc, b.NProc)
	add("cpu", a.CPU, b.CPU)
	add("go", a.GoVersion, b.GoVersion)
	add("goos", a.GOOS, b.GOOS)
	add("goarch", a.GOARCH, b.GOARCH)
	return d
}

// runName is the file stem of a run's outputs.
func runName(fp fingerprint, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", fp.Workload, fp.Seed, t)
}
