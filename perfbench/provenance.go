package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"branchreorder/internal/bench/loadgen"
)

// provenance stamps every result: where and on what it was measured.
// Commit comes from the build's version-control stamp and is empty when
// the checkout is not a git repository; SourceSHA256 hashes the Go
// sources and module files the binaries are built from, so it identifies
// the code either way.
type provenance struct {
	Workload     string            `json:"workload"`
	Seed         uint64            `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Trace        bool              `json:"trace"`
	Host         *loadgen.HostInfo `json:"host"`
	GoVersion    string            `json:"go_version"`
	Commit       string            `json:"commit"`
	SourceSHA256 string            `json:"source_sha256"`
}

func collectProvenance(cfg config) provenance {
	p := provenance{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		Trace:     cfg.trace,
		Host:      loadgen.CollectHost(),
		GoVersion: runtime.Version(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	p.SourceSHA256 = sourceDigest(cfg.root)
	return p
}

// sourceDigest hashes every .go file and go.mod under root, skipping
// hidden directories (build output, version control), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
