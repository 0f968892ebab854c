package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"olympian/internal/experiments"
)

func TestWriteCSV(t *testing.T) {
	rep := &experiments.Report{
		ID:      "figX",
		Headers: []string{"a", "b"},
	}
	rep.AddRow("1", "two words")
	var buf bytes.Buffer
	if err := writeCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "experiment,a,b" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "figX,1,two words" {
		t.Fatalf("row %q", lines[1])
	}
}

func TestRunScenarioFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	scenario := `{
	  "name": "test scenario",
	  "scheduler": "olympian",
	  "policy": "fair",
	  "seed": 1,
	  "clients": [{"model": "inception-v4", "batch": 40, "batches": 1, "count": 2}]
	}`
	if err := os.WriteFile(path, []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runScenario(&out, path); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"test scenario", "inception-v4", "spread", "switches"} {
		if !strings.Contains(text, want) {
			t.Fatalf("scenario output missing %q:\n%s", want, text)
		}
	}
}

func TestRunScenarioMultiGPU(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	scenario := `{
	  "scheduler": "olympian",
	  "gpus": 2,
	  "seed": 1,
	  "clients": [{"model": "resnet-152", "batch": 40, "batches": 1, "count": 4}]
	}`
	if err := os.WriteFile(path, []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runScenario(&out, path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "placement [2 2]") {
		t.Fatalf("multi-GPU scenario output:\n%s", out.String())
	}
}

func TestRunScenarioErrors(t *testing.T) {
	if err := runScenario(&bytes.Buffer{}, "/nonexistent.json"); err == nil {
		t.Fatal("expected error for missing file")
	}
	dir := t.TempDir()
	for name, body := range map[string]string{
		"badsched.json":  `{"scheduler":"warp","clients":[{"model":"vgg","batch":10}]}`,
		"badpolicy.json": `{"policy":"random","clients":[{"model":"vgg","batch":10}]}`,
		"badgpu.json":    `{"gpu":"tpu","clients":[{"model":"vgg","batch":10}]}`,
		"noclients.json": `{"scheduler":"olympian"}`,
		"badjson.json":   `{nope`,
		// Caps shared with olympian-serve, and the fleet bound: each must
		// fail before anything is simulated.
		"toomanyclients.json": `{"clients":[{"model":"inception-v4","batch":1,"count":1001}]}`,
		"toomanyjobs.json":    `{"clients":[{"model":"inception-v4","batch":1,"batches":2000000000}]}`,
		"toobigbatch.json":    `{"clients":[{"model":"inception-v4","batch":1025}]}`,
		"toomanygpus.json":    `{"gpus":65,"clients":[{"model":"inception-v4","batch":1}]}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runScenario(&bytes.Buffer{}, path); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestRunFlagParsing(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{}); err == nil {
		t.Fatal("expected error with no experiments")
	}
	if err := run([]string{"bogus-id"}); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}
