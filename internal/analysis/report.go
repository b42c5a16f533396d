package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the machine-readable side of m3vet: the -json report
// (findings with witness chains plus the shared-state inventory) and
// the vet-baseline.json suppression file that lets CI accept the
// current inventory without letting new findings in.

// JSONFact is one serialized witness step.
type JSONFact struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Note string `json:"note,omitempty"`
}

// JSONFinding is one serialized diagnostic.
type JSONFinding struct {
	Rule    string     `json:"rule"`
	Key     string     `json:"key,omitempty"`
	File    string     `json:"file"`
	Line    int        `json:"line"`
	Col     int        `json:"col"`
	Message string     `json:"message"`
	Chain   []JSONFact `json:"chain,omitempty"`
}

// JSONInventoryEntry is one serialized shared-state inventory row.
type JSONInventoryEntry struct {
	Key     string   `json:"key"`
	Kind    string   `json:"kind"`
	Type    string   `json:"type"`
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Shared  bool     `json:"shared"`
	Writers []string `json:"writers"`
	Readers []string `json:"readers"`
	// Resolution and ResolutionNote mirror the //m3vet:resolve
	// annotation on the declaration: how sharing the location is safe
	// (owner/message) and why. Empty while the entry is still open
	// work-list debt.
	Resolution     string     `json:"resolution,omitempty"`
	ResolutionNote string     `json:"resolution_note,omitempty"`
	Witness        []JSONFact `json:"witness,omitempty"`
}

// JSONReport is the full `m3vet -json` document.
type JSONReport struct {
	// Findings are the unsuppressed diagnostics.
	Findings []JSONFinding `json:"findings"`
	// Suppressed counts baseline-suppressed findings (they are absent
	// from Findings but the count keeps the suppression visible).
	Suppressed int `json:"suppressed"`
	// SharedState is the full inventory (shared and private rows): the
	// parallel-DES work-list. See ROADMAP item 2.
	SharedState []JSONInventoryEntry `json:"sharedstate"`
}

// relPath rebases file paths onto the module root so reports and
// baselines are machine-independent.
func relPath(root, file string) string {
	if root == "" {
		return file
	}
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

func jsonFact(root string, f Fact) JSONFact {
	return JSONFact{File: relPath(root, f.Pos.Filename), Line: f.Pos.Line, Col: f.Pos.Column, Note: f.Note}
}

func jsonPosFact(root string, pos token.Position, note string) JSONFact {
	return jsonFact(root, Fact{Pos: pos, Note: note})
}

// BuildReport serializes a module check result. root is the module
// directory used to relativize paths; suppressed is the number of
// baseline-suppressed findings.
func BuildReport(root string, diags []Diagnostic, inventory []InventoryEntry, suppressed int) *JSONReport {
	rep := &JSONReport{Findings: []JSONFinding{}, Suppressed: suppressed, SharedState: []JSONInventoryEntry{}}
	for _, d := range diags {
		f := JSONFinding{
			Rule:    d.Rule,
			Key:     d.Key,
			File:    relPath(root, d.Pos.Filename),
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Message: d.Message,
		}
		for _, step := range d.Chain {
			f.Chain = append(f.Chain, jsonFact(root, step))
		}
		rep.Findings = append(rep.Findings, f)
	}
	for _, e := range inventory {
		row := JSONInventoryEntry{
			Key:            e.Key,
			Kind:           e.Kind,
			Type:           e.Type,
			File:           relPath(root, e.Pos.Pos.Filename),
			Line:           e.Pos.Pos.Line,
			Shared:         e.Shared,
			Writers:        e.Writers,
			Readers:        e.Readers,
			Resolution:     e.Resolution,
			ResolutionNote: e.ResolutionNote,
		}
		for _, step := range e.WriteWitness {
			row.Witness = append(row.Witness, jsonFact(root, step))
		}
		rep.SharedState = append(rep.SharedState, row)
	}
	return rep
}

// WriteJSON writes the report to path (or stdout for "-"), indented
// for diffability.
func (r *JSONReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

// Baseline is the committed suppression set: the stable keys of
// accepted findings. Keys are position-independent, so ordinary code
// motion does not churn the file; only a genuinely new flow adds a
// key.
type Baseline struct {
	// Comment documents the file's purpose inside the JSON itself.
	Comment    string   `json:"_comment,omitempty"`
	Suppressed []string `json:"suppressed"`

	keys map[string]bool
}

// LoadBaseline reads a baseline file; a missing file is an empty
// baseline, not an error (fresh checkouts before the first
// `make vet-baseline` still vet).
func LoadBaseline(path string) (*Baseline, error) {
	b := &Baseline{}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		b.keys = map[string]bool{}
		return b, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	b.keys = make(map[string]bool, len(b.Suppressed))
	for _, k := range b.Suppressed {
		b.keys[k] = true
	}
	return b, nil
}

// Filter splits diagnostics into surviving and baseline-suppressed.
// Only keyed (module-pass) findings can be baselined.
func (b *Baseline) Filter(diags []Diagnostic) (kept []Diagnostic, suppressed int) {
	for _, d := range diags {
		if d.Key != "" && b.keys[d.Key] {
			suppressed++
			continue
		}
		kept = append(kept, d)
	}
	return kept, suppressed
}

// WriteBaseline writes the keys of every keyed diagnostic as the new
// baseline.
func WriteBaseline(path string, diags []Diagnostic) error {
	seen := make(map[string]bool)
	var keys []string
	for _, d := range diags {
		if d.Key != "" && !seen[d.Key] {
			seen[d.Key] = true
			keys = append(keys, d.Key)
		}
	}
	sort.Strings(keys)
	b := &Baseline{
		Comment: "accepted m3vet findings (regenerate with `make vet-baseline`); " +
			"the sharedstate keys double as the parallel-DES synchronization work-list",
		Suppressed: keys,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
