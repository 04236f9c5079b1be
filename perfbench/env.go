package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envRecord is stored with every result: what ran, where, and on what.
type envRecord struct {
	Commit string `json:"commit"`
	// SourceSHA256 digests every .go file and go.mod of the checkout,
	// so runs from a checkout that is not a git repository can still be
	// matched to their source.
	SourceSHA256 string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	TopodProcs   int     `json:"topod_gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	Fsync        string  `json:"fsync"`
	Seed         int64   `json:"seed"`
	Workload     string  `json:"workload"`
	Seconds      float64 `json:"seconds"`
	Trace        int     `json:"trace"`
	Objects      int     `json:"objects"`
	Started      string  `json:"started"`
}

func environment(o options, wl *workloadSpec) envRecord {
	return envRecord{
		Commit:       gitCommit(o.repo),
		SourceSHA256: sourceDigest(o.repo),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		TopodProcs:   topodProcs,
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Fsync:        wl.fsync,
		Seed:         o.seed,
		Workload:     o.workload,
		Seconds:      o.seconds,
		Trace:        o.trace,
		Objects:      sizes(o.tiny).objects,
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit is HEAD of the repository, or "unknown" outside a git
// checkout.
func gitCommit(repo string) string {
	out, err := exec.Command("git", "-C", repo, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the path and content of every Go source file
// and go.mod under repo, skipping hidden directories (build output
// lives in one).
func sourceDigest(repo string) string {
	var files []string
	_ = filepath.WalkDir(repo, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != repo && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(repo, f)
		_, _ = io.WriteString(h, rel+"\x00")
		if fh, err := os.Open(f); err == nil {
			_, _ = io.Copy(h, fh)
			fh.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
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
