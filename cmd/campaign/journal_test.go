package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// pinnedGrids are the grids whose journals and reports are checked in
// under testdata (NAME.jsonl, NAME.stdout), one of each kind: the
// robustness smoke sweep, the federated campaign and a paper-table
// campaign. They were written by an earlier build of this command with
// these arguments plus -p 1 -out NAME.jsonl, so they pin both the
// journal format and the reports across changes to the grid harness.
var pinnedGrids = []struct {
	name string
	args []string
}{
	{"ci-smoke", []string{"-spec", "../../specs/ci-smoke.yaml", "-perf=false"}},
	{"federated", []string{"-spec", "../../specs/federated.yaml", "-jobs", "150"}},
	{"grid", []string{"-spec", "testdata/grid.yaml"}},
}

// TestPinnedJournalsResume resumes each pinned journal: every cell
// loads, nothing is appended, and the report is the pinned one.
func TestPinnedJournalsResume(t *testing.T) {
	for _, g := range pinnedGrids {
		t.Run(g.name, func(t *testing.T) {
			pinned, want := readPinned(t, g.name)
			journal := filepath.Join(t.TempDir(), g.name+".jsonl")
			if err := os.WriteFile(journal, pinned, 0o644); err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := runCampaign(t, append(g.args, "-p", "1", "-out", journal, "-resume")...)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			cells := bytes.Count(pinned, []byte("\n"))
			if !strings.Contains(stderr, fmt.Sprintf("%d journaled cells loaded", cells)) {
				t.Errorf("resume did not load all %d cells:\n%s", cells, stderr)
			}
			after, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, pinned) {
				t.Errorf("resuming the pinned journal appended %d bytes", len(after)-len(pinned))
			}
			if stdout != want {
				t.Errorf("resumed report differs from the pinned one:\n%s\nvs\n%s", stdout, want)
			}
		})
	}
}

// TestPinnedJournalsFresh reruns each pinned grid with no journal: the
// report is the pinned one, and every journal line equals its pinned
// line field for field except the simulation's wall time.
func TestPinnedJournalsFresh(t *testing.T) {
	for _, g := range pinnedGrids {
		t.Run(g.name, func(t *testing.T) {
			pinned, want := readPinned(t, g.name)
			journal := filepath.Join(t.TempDir(), g.name+".jsonl")
			code, stdout, stderr := runCampaign(t, append(g.args, "-p", "1", "-out", journal, "-resume=false")...)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			if stdout != want {
				t.Errorf("report differs from the pinned one:\n%s\nvs\n%s", stdout, want)
			}
			fresh, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			got, exp := journalLines(t, fresh), journalLines(t, pinned)
			if len(got) != len(exp) {
				t.Fatalf("journaled %d cells, pinned %d", len(got), len(exp))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], exp[i]) {
					t.Errorf("journal line %d differs:\n%v\nvs pinned\n%v", i+1, got[i], exp[i])
				}
			}
		})
	}
}

// readPinned returns a pinned grid's journal and report.
func readPinned(t *testing.T, name string) (journal []byte, stdout string) {
	t.Helper()
	journal, err := os.ReadFile(filepath.Join("testdata", name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(filepath.Join("testdata", name+".stdout"))
	if err != nil {
		t.Fatal(err)
	}
	return journal, string(out)
}

// journalLines decodes a journal's lines generically, dropping the one
// field no two runs share: perf.wall_nanos.
func journalLines(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if perf, ok := m["perf"].(map[string]any); ok {
			delete(perf, "wall_nanos")
		}
		out = append(out, m)
	}
	return out
}
