package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-jobs", "0"}, {"-jobs", "-1"}, {"-seeds", "0"}, {"-seeds", "-2"}, {"-flood"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

func TestRunPrintsOneLinePerCell(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-jobs", "80", "-seeds", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want one per preset (6):\n%s", len(lines), stdout.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "EASY=") || !strings.Contains(l, "gain=") {
			t.Fatalf("malformed line %q", l)
		}
	}
}
