package analysis

import (
	"fmt"
	"strings"
)

// This file implements //m3vet:resolve comments: the mechanism that
// retires entries from the shared-state inventory one by one. A
// resolve comment sits on (or directly above) the declaration of an
// inventoried location and records *why* sharing it between entry
// contexts is safe:
//
//	//m3vet:resolve sharedstate <owner|message> <reason>
//
// The two resolutions are the engine's two safety arguments:
//
//   - owner: the location is only mutated on the engine goroutine or
//     by the single process holding the engine's strict hand-off, so
//     no two contexts ever touch it at once.
//   - message: the location lives in a pooled message or packet whose
//     ownership is handed off through the pool discipline; exactly one
//     context can reach it at a time.
//
// A resolved entry stops producing a sharedstate finding (its baseline
// key disappears on the next `make vet-baseline`).
const ResolvePrefix = "m3vet:resolve"

// resolveKinds are the accepted synchronization arguments.
var resolveKinds = map[string]bool{
	"owner":   true,
	"message": true,
}

// resolution is one parsed resolve comment.
type resolution struct {
	kind string
	note string
	pos  Fact
	used bool
}

// resolveSlot identifies one (file, line) a resolve comment applies to.
type resolveSlot struct {
	file string
	line int
}

// collectResolves parses every //m3vet:resolve comment of the given
// packages. Like //m3vet:allow, a comment claims its own line and the
// line below it (trailing comment vs standalone comment above the
// declaration). Malformed comments — wrong rule, unknown kind, missing
// reason — are diagnostics: a resolution that parses as nothing must
// not silently leave the entry unresolved.
func collectResolves(pkgs []*Package) (map[resolveSlot]*resolution, []Diagnostic) {
	resolves := make(map[resolveSlot]*resolution)
	var bad []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, ResolvePrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(strings.TrimPrefix(text, ResolvePrefix))
					switch {
					case len(fields) < 3:
						bad = append(bad, Diagnostic{Pos: pos, Rule: "m3vet",
							Message: "malformed resolve comment: want //m3vet:resolve sharedstate <owner|message> <reason>"})
						continue
					case fields[0] != SharedState.Name:
						bad = append(bad, Diagnostic{Pos: pos, Rule: "m3vet",
							Message: fmt.Sprintf("resolve comment names rule %q; only %q entries can be resolved", fields[0], SharedState.Name)})
						continue
					case !resolveKinds[fields[1]]:
						bad = append(bad, Diagnostic{Pos: pos, Rule: "m3vet",
							Message: fmt.Sprintf("resolve comment uses unknown resolution %q (want owner or message)", fields[1])})
						continue
					}
					r := &resolution{
						kind: fields[1],
						note: strings.Join(fields[2:], " "),
						pos:  Fact{Pos: pos, Note: "resolved here"},
					}
					for _, slot := range []resolveSlot{
						{pos.Filename, pos.Line},
						{pos.Filename, pos.Line + 1},
					} {
						if prev := resolves[slot]; prev != nil && prev != r {
							bad = append(bad, Diagnostic{Pos: pos, Rule: "m3vet",
								Message: fmt.Sprintf("duplicate resolve comment for %s:%d", slot.file, slot.line)})
							continue
						}
						resolves[slot] = r
					}
				}
			}
		}
	}
	return resolves, bad
}

// applyResolutions matches resolve comments against the inventory's
// declaration sites, stamping Resolution/ResolutionNote on matched
// entries. A resolve comment that matches no inventoried location is a
// diagnostic — stale annotations (the field was renamed, the code no
// longer shares it) must be deleted, not accumulate.
func applyResolutions(pkgs []*Package, inventory []InventoryEntry) []Diagnostic {
	resolves, diags := collectResolves(pkgs)
	if len(resolves) == 0 {
		return diags
	}
	for i := range inventory {
		e := &inventory[i]
		r := resolves[resolveSlot{e.Pos.Pos.Filename, e.Pos.Pos.Line}]
		if r == nil {
			continue
		}
		e.Resolution = r.kind
		e.ResolutionNote = r.note
		r.used = true
	}
	seen := make(map[*resolution]bool)
	for _, r := range resolves {
		if r.used || seen[r] {
			continue
		}
		seen[r] = true
		diags = append(diags, Diagnostic{Pos: r.pos.Pos, Rule: "m3vet",
			Message: "resolve comment matches no inventoried shared-state declaration (stale annotation?)"})
	}
	SortDiagnostics(diags)
	return diags
}
