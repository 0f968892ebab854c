package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunListModels(t *testing.T) {
	if err := run([]string{"-models"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRequiresModel(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("expected error without -model or -all")
	}
}

func TestRunRejectsUnknownGPU(t *testing.T) {
	if err := run([]string{"-model", "vgg", "-gpu", "tpu-v9"}); err == nil {
		t.Fatal("expected error for unknown GPU")
	}
}

func TestRunRejectsOversizeBatch(t *testing.T) {
	err := run([]string{"-model", "inception-v4", "-batch", "1025"})
	if err == nil || !strings.Contains(err.Error(), "above the cap") {
		t.Fatalf("err = %v, want the batch cap", err)
	}
}

func TestRunProfileSaveAndLoad(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-model", "resnet-152", "-batch", "30", "-save", dir}); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(dir, "gtx-1080ti", "resnet-152-b30.json")
	if _, err := os.Stat(saved); err != nil {
		t.Fatalf("profile not saved: %v", err)
	}
	if err := run([]string{"-model", "resnet-152", "-batch", "30", "-from", dir}); err != nil {
		t.Fatal(err)
	}
	// Loading for the wrong platform must fail (profiles are
	// platform-specific).
	if err := run([]string{"-model", "resnet-152", "-batch", "30", "-from", dir, "-gpu", "titan-x"}); err == nil {
		t.Fatal("expected error loading a GTX profile for Titan X")
	}
}

func TestRunUnknownModel(t *testing.T) {
	if err := run([]string{"-model", "lstm-9000"}); err == nil {
		t.Fatal("expected error for unknown model")
	}
}
