package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinyReference writes a reference for the tiny size and returns its path.
func tinyReference(t *testing.T, root string) string {
	t.Helper()
	ref := filepath.Join(root, "reference.json")
	var stderr bytes.Buffer
	if code := run([]string{"-root", root, "-size", "tiny", "-reference", ref, "-write-reference"}, &bytes.Buffer{}, &stderr); code != 0 {
		t.Fatalf("writing reference: exit %d: %s", code, stderr.String())
	}
	return ref
}

// runTiny runs one tiny-size benchmark run and decodes its result line.
func runTiny(t *testing.T, root, ref, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-root", root, "-size", "tiny", "-reference", ref, "-workload", workload,
		"-seed", "7", "-seconds", "1", "-trace", trace}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s trace %s: last line %q: %v", workload, trace, lines[len(lines)-1], err)
	}
	return res
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeEveryWorkload runs every workload at tiny size, untraced and
// traced, and checks each metric BENCHMARK.json names is printed with its
// unit, and the run was correct.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := loadBenchmarkFile(t)
	root := t.TempDir()
	ref := tinyReference(t, root)
	for _, w := range bf.Workloads {
		for trace, want := range map[string][]metricDef{"0": bf.EndToEnd, "1": bf.PerLayer} {
			res := runTiny(t, root, ref, w.Name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
				case !ok:
					t.Errorf("%s trace %s: metric %s not printed", w.Name, trace, m.Name)
				case got.Unit == "" || got.Unit != m.Unit:
					t.Errorf("%s trace %s: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
		for _, f := range []string{"trace.json", "cpu.pprof", "probes.pprof", "layers.json"} {
			if _, err := os.Stat(filepath.Join(root, ".bench_out", w.Name, f)); err != nil {
				t.Errorf("%s: traced run left no %s: %v", w.Name, f, err)
			}
		}
	}
}

// TestTamperedReferenceFails checks the correctness check notices a
// reference whose outcomes or plan do not match what the program does.
func TestTamperedReferenceFails(t *testing.T) {
	root := t.TempDir()
	ref := tinyReference(t, root)
	orig, err := loadReference(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Workloads["npb-params"]) == 0 {
		t.Fatal("reference has no npb-params campaigns")
	}
	if res := runTiny(t, root, ref, "npb-params", "0"); !res.Correct {
		t.Fatal("untampered reference failed the check")
	}
	tamper := map[string]func(l *legReference){
		"outcomes": func(l *legReference) {
			for k, v := range l.Dominant {
				if v == "SUCCESS" {
					l.Dominant[k] = "SEG_FAULT"
				} else {
					l.Dominant[k] = "SUCCESS"
				}
			}
		},
		"plan": func(l *legReference) { l.AfterContext++ },
	}
	for name, fn := range tamper {
		t.Run(name, func(t *testing.T) {
			bad, err := loadReference(ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, legs := range bad.Workloads["npb-params"] {
				for i := range legs {
					fn(&legs[i])
				}
			}
			path := filepath.Join(t.TempDir(), "tampered.json")
			if err := bad.save(path); err != nil {
				t.Fatal(err)
			}
			if res := runTiny(t, root, path, "npb-params", "0"); res.Correct {
				t.Error("tampered reference passed the check")
			}
		})
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric and
// workload tables the benchmark prints from in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
	}
	for _, c := range []struct {
		kind      string
		file, src []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.src) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", c.kind, len(c.file), len(c.src))
			continue
		}
		for i := range c.src {
			f, s := c.file[i], c.src[i]
			if f.Name != s.Name || f.Unit != s.Unit || f.Better != s.Better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", c.kind, i, f.Name, f.Unit, f.Better, s.Name, s.Unit, s.Better)
			}
		}
	}
}
