package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SharedState is the shared-state inventory pass. An *entry context*
// is one place the simulator can start executing on behalf of a PE: a
// noc.Handler.Deliver implementation (packet delivery), a callback
// scheduled on the sim engine, or a process body spawned on it. Under
// the serial engine these contexts interleave but never overlap; any
// parallel scheduler would run them concurrently, so every location
// written by one entry context and touched by another is a
// synchronization obligation. This pass computes that set
// interprocedurally (call graph + effect summaries) and emits it both
// as diagnostics (baselined — the inventory is accepted debt, not a
// regression) and as the machine-readable `m3vet -json` inventory.
var SharedState = &ModuleAnalyzer{
	Name: "sharedstate",
	Doc:  "inventory mutable state reachable from more than one PE entry context",
	Run:  runSharedState,
}

// entryContext pairs an entry-point function with how it becomes one.
type entryContext struct {
	node *FuncNode
	how  string // "noc.Handler", "sim.Schedule", "sim.Spawn", "tile.Start"
}

// spawnSites maps (package path, method name) of the functions whose
// func-typed arguments become entry contexts.
var spawnSites = map[[2]string]string{
	{"repro/internal/sim", "Schedule"}: "sim.Schedule",
	{"repro/internal/sim", "Spawn"}:    "sim.Spawn",
	{"repro/internal/tile", "Start"}:   "tile.Start",
}

// FindEntryContexts discovers the entry contexts of the module, in
// deterministic (name) order.
func FindEntryContexts(g *CallGraph) []entryContext {
	seen := make(map[*FuncNode]bool)
	var out []entryContext
	add := func(n *FuncNode, how string) {
		if n != nil && !seen[n] {
			seen[n] = true
			out = append(out, entryContext{node: n, how: how})
		}
	}

	// 1. noc.Handler implementations: packet-delivery entry points.
	if iface := lookupInterface(g.pkgs, "repro/internal/noc", "Handler"); iface != nil {
		deliver := lookupMethod(iface, "Deliver")
		if deliver != nil {
			for _, impl := range g.implementers(iface, deliver) {
				add(impl, "noc.Handler")
			}
		}
	}

	// 2. Func values handed to the engine (callbacks, process bodies)
	// or to tile.PE.Start.
	for _, n := range g.Nodes {
		if n.Body == nil {
			continue
		}
		info := n.Pkg.Info
		ast.Inspect(n.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			how, ok := spawnSites[[2]string{fn.Pkg().Path(), fn.Name()}]
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if t := info.TypeOf(arg); t == nil {
					continue
				} else if _, isFunc := t.Underlying().(*types.Signature); !isFunc {
					continue
				}
				add(resolveFuncValue(g, info, arg), how)
			}
			return true
		})
	}

	sort.Slice(out, func(i, j int) bool { return out[i].node.Name() < out[j].node.Name() })
	return out
}

// resolveFuncValue maps a func-typed argument expression to its
// call-graph node: a literal, a named function, or a method value.
// Arbitrary func-typed variables resolve to nil (conservative loss,
// noted in docs/ANALYSIS.md).
func resolveFuncValue(g *CallGraph, info *types.Info, arg ast.Expr) *FuncNode {
	switch arg := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return g.ByLit[arg]
	case *ast.Ident:
		if fn, ok := info.Uses[arg].(*types.Func); ok {
			return g.ByObj[fn]
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[arg]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return g.ByObj[fn]
			}
		}
		if fn, ok := info.Uses[arg.Sel].(*types.Func); ok {
			return g.ByObj[fn]
		}
	}
	return nil
}

func lookupInterface(pkgs []*Package, path, name string) *types.Interface {
	for _, pkg := range pkgs {
		if pkg.Path != path {
			continue
		}
		tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			return nil
		}
		iface, _ := tn.Type().Underlying().(*types.Interface)
		return iface
	}
	return nil
}

func lookupMethod(iface *types.Interface, name string) *types.Func {
	for i := 0; i < iface.NumMethods(); i++ {
		if m := iface.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

// InventoryEntry is one row of the shared-state inventory.
type InventoryEntry struct {
	// Key is the stable location identity ("repro/internal/noc.Network.PacketsSent").
	Key string
	// Kind is "global" or "field".
	Kind string
	// Type is the location's Go type.
	Type string
	// Pos is the declaration site.
	Pos Fact
	// Writers and Readers are the entry contexts that may write/read
	// the location (reader lists exclude nothing — a writer usually
	// reads too). Sorted.
	Writers []string
	Readers []string
	// Shared marks locations written by one context and touched by at
	// least one other: the synchronization work-list.
	Shared bool
	// Resolution is the synchronization argument recorded by a
	// //m3vet:resolve comment on the declaration ("owner" or "message"
	// — see resolve.go), or "" while the entry is still open work-list
	// debt. Resolved entries stop producing sharedstate findings.
	Resolution string
	// ResolutionNote is the resolve comment's mandatory reason.
	ResolutionNote string
	// WriteWitness is one interprocedural chain from a writing entry
	// context to the mutating statement.
	WriteWitness []Fact
}

// BuildInventory computes the shared-state inventory over the module.
// Only locations declared in simulation-facing packages participate:
// host-side tooling state is not simulation state.
func BuildInventory(g *CallGraph, sums *Summaries) []InventoryEntry {
	entries := FindEntryContexts(g)
	type access struct {
		writers []*entryContext
		readers []*entryContext
	}
	accesses := make(map[Loc]*access)
	get := func(loc Loc) *access {
		a := accesses[loc]
		if a == nil {
			a = &access{}
			accesses[loc] = a
		}
		return a
	}
	for i := range entries {
		e := &entries[i]
		sum := sums.ByNode[e.node]
		if sum == nil {
			continue
		}
		for loc := range sum.Writes {
			if simLoc(loc) {
				get(loc).writers = append(get(loc).writers, e)
			}
		}
		for loc := range sum.Reads {
			if simLoc(loc) {
				get(loc).readers = append(get(loc).readers, e)
			}
		}
	}

	locs := make([]Loc, 0, len(accesses))
	for loc := range accesses {
		locs = append(locs, loc)
	}
	SortLocs(locs)

	var out []InventoryEntry
	for _, loc := range locs {
		a := accesses[loc]
		touch := make(map[string]bool)
		for _, e := range a.writers {
			touch[e.node.Name()] = true
		}
		for _, e := range a.readers {
			touch[e.node.Name()] = true
		}
		kind := "global"
		if loc.Field {
			kind = "field"
		}
		entry := InventoryEntry{
			Key:     loc.String(),
			Kind:    kind,
			Type:    types.TypeString(loc.Var.Type(), nil),
			Pos:     Fact{Pos: positionOf(g, loc.Var), Note: "declared here"},
			Writers: contextNames(a.writers),
			Readers: contextNames(a.readers),
			Shared:  len(a.writers) > 0 && len(touch) > 1,
		}
		if len(a.writers) > 0 {
			// Witness from the first (name-sorted) writer.
			entry.WriteWitness = sums.WriteChain(a.writers[0].node, loc)
		}
		out = append(out, entry)
	}
	return out
}

// simLoc reports whether loc is declared in a simulation-facing
// package.
func simLoc(loc Loc) bool {
	return loc.Var.Pkg() != nil && simFacing[loc.Var.Pkg().Path()]
}

func contextNames(ctxs []*entryContext) []string {
	seen := make(map[string]bool)
	var names []string
	for _, c := range ctxs {
		name := c.node.Name()
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func positionOf(g *CallGraph, v *types.Var) token.Position {
	for _, pkg := range g.pkgs {
		if pkg.Types == v.Pkg() {
			return pkg.Fset.Position(v.Pos())
		}
	}
	if len(g.pkgs) > 0 {
		return g.pkgs[0].Fset.Position(v.Pos())
	}
	return token.Position{}
}

func runSharedState(pass *ModulePass) {
	for _, entry := range pass.Inventory {
		if !entry.Shared {
			continue
		}
		// A //m3vet:resolve annotation retires the entry from the
		// work-list: the synchronization plan it demanded now exists and
		// is recorded.
		if entry.Resolution != "" {
			continue
		}
		writers := summarizeNames(entry.Writers)
		readers := summarizeNames(entry.Readers)
		pass.Report(entry.Pos.Pos, entry.Key,
			fmt.Sprintf("%s %s (%s) is written by entry context(s) %s and reachable from %s: needs a synchronization plan before parallel DES",
				entry.Kind, entry.Key, entry.Type, writers, readers),
			entry.WriteWitness)
	}
}

// summarizeNames keeps diagnostics readable when dozens of contexts
// touch a location.
func summarizeNames(names []string) string {
	const max = 3
	if len(names) == 0 {
		return "(none)"
	}
	if len(names) <= max {
		return strings.Join(names, ", ")
	}
	return fmt.Sprintf("%s and %d more", strings.Join(names[:max], ", "), len(names)-max)
}
