package analysis

import (
	"strings"
	"testing"
)

// resolveFixture models the serial engine's shapes: a noc.Handler
// implementation and an engine callback both touch three locations —
// one resolved "owner", one resolved "message", and one unresolved
// (still a sharedstate finding).
var resolveFixture = map[string]map[string]string{
	"repro/internal/sim": {"sim.go": `package sim

type Engine struct{}

func (e *Engine) Schedule(at int, fn func()) { fn() }
`},
	"repro/internal/noc": {"noc.go": `package noc

type Packet struct{ Hops int }

type Handler interface{ Deliver(p *Packet) }

//m3vet:resolve sharedstate owner only the engine goroutine bumps this
var OwnerOnly int

//m3vet:resolve sharedstate message the packet is owned by exactly one context at a time
var Pooled *Packet

var Unresolved int
`},
	"repro/internal/dtu": {"dtu.go": `package dtu

import "repro/internal/noc"

type D struct{}

func (d *D) Deliver(p *noc.Packet) {
	bumpOwner()
	noc.Pooled = p
	noc.Unresolved++
}

func bumpOwner() { noc.OwnerOnly++ }
`},
	"repro/internal/core": {"core.go": `package core

import (
	"repro/internal/noc"
	"repro/internal/sim"
)

func Boot(e *sim.Engine) {
	e.Schedule(1, func() {
		noc.OwnerOnly++
		noc.Pooled = nil
		noc.Unresolved++
	})
}
`},
}

func TestResolveStampsInventory(t *testing.T) {
	res := runModuleOn(t, resolveFixture)
	rows := make(map[string]InventoryEntry)
	for _, e := range res.Inventory {
		rows[e.Key] = e
	}
	want := map[string]string{
		"repro/internal/noc.OwnerOnly":  "owner",
		"repro/internal/noc.Pooled":     "message",
		"repro/internal/noc.Unresolved": "",
	}
	for key, kind := range want {
		e, ok := rows[key]
		if !ok {
			t.Errorf("no inventory row for %s", key)
			continue
		}
		if e.Resolution != kind {
			t.Errorf("%s resolution = %q, want %q", key, e.Resolution, kind)
		}
		if kind != "" && e.ResolutionNote == "" {
			t.Errorf("%s has no resolution note", key)
		}
	}
}

func TestResolveRetiresSharedStateFindings(t *testing.T) {
	res := runModuleOn(t, resolveFixture)
	diags := diagsOf(res, "sharedstate")
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 sharedstate finding (the unresolved entry), got %d:\n%s",
			len(diags), diagText(diags))
	}
	if diags[0].Key != "sharedstate:repro/internal/noc.Unresolved" {
		t.Errorf("surviving finding = %q, want the unresolved location", diags[0].Key)
	}
}

// badResolveFixture holds every way a resolve comment can be wrong:
// too few fields, a rule other than sharedstate, an unknown resolution
// kind (the retired per-shard argument), and a well-formed comment on
// a declaration the inventory does not contain (stale).
var badResolveFixture = map[string]map[string]string{
	"repro/internal/noc": {"noc.go": `package noc

//m3vet:resolve sharedstate
var A int

//m3vet:resolve timetaint owner wrong rule entirely
var B int

//m3vet:resolve sharedstate shard each shard owns its partition
var C int

//m3vet:resolve sharedstate owner nothing inventories this
var D int
`},
}

func TestResolveMalformedAndStaleComments(t *testing.T) {
	res := runModuleOn(t, badResolveFixture)
	diags := diagsOf(res, "m3vet")
	if len(diags) != 4 {
		t.Fatalf("want 4 diagnostics, got %d:\n%s", len(diags), diagText(diags))
	}
	wants := []string{
		"malformed resolve comment",
		`names rule "timetaint"`,
		`unknown resolution "shard"`,
		"matches no inventoried shared-state declaration",
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q:\n%s", w, diagText(diags))
		}
	}
	// None of these carry a rule:key identity, so none can be baselined
	// away: a lying annotation must always fail CI.
	for _, d := range diags {
		if d.Key != "" {
			t.Errorf("diagnostic %s is baselineable (key %q)", d, d.Key)
		}
	}
}
