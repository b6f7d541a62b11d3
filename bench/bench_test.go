package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestSpecMatchesBenchmarkFile holds the tables in spec.go against
// BENCHMARK.json, and BENCHMARK.json against the driver's format.
func TestSpecMatchesBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not in the driver's format", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	// 4 + 22 runs per workload, each run_seconds plus set-up, inside the
	// driver's 3420 s with room for two builds.
	if runs := 4 + 22*len(bf.Workloads); float64(runs)*(float64(bf.RunSeconds)+6) > 3000 {
		t.Errorf("%d runs of %d s do not fit the driver's budget", runs, bf.RunSeconds)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, spec.go has %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		name(m.Name)
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go has %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		name(m.Name)
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go has %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s: unit %q", m.Name, m.Unit)
		}
	}
}

func testConfig(t *testing.T) config {
	return config{seed: 7, dir: t.TempDir(), scale: 0.01}
}

// driverLine is the last line of a single run's output.
type driverLine struct {
	Correct   *bool   `json:"correct"`
	Attempted *uint64 `json:"attempted"`
	Failed    *uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, the
// way the driver does, and checks that the output parses and that every
// metric of BENCHMARK.json appears exactly once, with its unit.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	metricLine := regexp.MustCompile(`^metric\s+(\S+)\s+(\S+)\s+(-?[0-9.eE+-]+|NaN|[+-]Inf)\s+(\S+)$`)
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			kind := map[bool]string{false: "untraced", true: "traced"}[traced]
			t.Run(spec.Name+"/"+kind, func(t *testing.T) {
				var out bytes.Buffer
				if !single(&out, spec.Name, testConfig(t), 300*time.Millisecond, traced, t.TempDir()) {
					t.Fatalf("run failed:\n%s", out.String())
				}
				want := map[string]string{}
				if traced {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				}

				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				printed := map[string]int{}
				for _, line := range lines[:len(lines)-1] {
					switch {
					case strings.HasPrefix(line, "metric "):
						f := metricLine.FindStringSubmatch(line)
						if f == nil {
							t.Errorf("metric line does not parse: %q", line)
							continue
						}
						if f[1] != spec.Name || want[f[2]] != f[4] {
							t.Errorf("unexpected metric line %q", line)
						}
						printed[f[2]]++
					case strings.HasPrefix(line, "host "), strings.HasPrefix(line, "check "),
						strings.HasPrefix(line, "note "), strings.HasPrefix(line, "span "):
					default:
						t.Errorf("unrecognised output line %q", line)
					}
				}
				for name := range want {
					if printed[name] != 1 {
						t.Errorf("metric %s printed %d times, want once", name, printed[name])
					}
				}

				var last driverLine
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&last); err != nil {
					t.Fatalf("last line is not the driver's JSON object: %v\n%s", err, lines[len(lines)-1])
				}
				if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil || *last.Failed != 0 {
					t.Errorf("driver line: %s", lines[len(lines)-1])
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("driver line has %d metrics, want %d", len(last.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := last.Metrics[name]
					if !ok || m.Value == nil || m.Unit != unit {
						t.Errorf("driver line: metric %s missing or without unit %s", name, unit)
						continue
					}
					if !traced && *m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", name, *m.Value)
					}
				}
				if traced && !strings.Contains(out.String(), "span ") {
					t.Error("traced run printed no spans")
				}
			})
		}
	}
}

// TestCorruptEchoCounts shows the echo oracle at work: a device that
// flips one byte of every reply fails every call.
func TestCorruptEchoCounts(t *testing.T) {
	cfg := testConfig(t)
	cfg.corruptEcho = true
	spec, _ := findWorkload("rr-local-64B")
	res, err := runUntraced(spec, cfg, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("attempted=%d failed=%d, want every call to fail", res.Attempted, res.Failed)
	}
	var out bytes.Buffer
	printDriverLine(&out, res)
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("driver line does not report the failure: %s", out.String())
	}
}
