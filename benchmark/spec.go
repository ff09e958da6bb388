package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec mirrors BENCHMARK.json, the one place metric and workload names,
// units, directions and bounds are declared. The harness reads it rather
// than repeating it, so the two cannot drift.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var loadedSpec *benchSpec

// spec loads BENCHMARK.json from the working directory or, for `go test`
// run inside benchmark/, its parent.
func spec() *benchSpec {
	if loadedSpec != nil {
		return loadedSpec
	}
	var data []byte
	var err error
	for _, dir := range []string{".", ".."} {
		if data, err = os.ReadFile(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			break
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json not found: run from the repository root")
		os.Exit(2)
	}
	s := &benchSpec{}
	if err := json.Unmarshal(data, s); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		os.Exit(2)
	}
	loadedSpec = s
	return s
}

func perLayerNames() []string {
	names := make([]string, len(spec().PerLayer))
	for i, m := range spec().PerLayer {
		names[i] = m.Name
	}
	return names
}

func perLayerUnits() map[string]string {
	units := map[string]string{}
	for _, m := range spec().PerLayer {
		units[m.Name] = m.Unit
	}
	return units
}
