package analysis

import (
	"strings"
	"testing"
)

// capFixture: an app-layer package touching hw-layer APIs. NodeID may
// not cross into app at all; an unexported field makes a struct an
// opaque handle and is fine.
var capFixture = map[string]map[string]string{
	"repro/internal/kif": {"kif.go": `package kif

type CapSel uint64
`},
	"repro/internal/noc": {"noc.go": `package noc

type NodeID int
`},
	"repro/internal/dtu": {"dtu.go": `package dtu

import (
	"repro/internal/kif"
	"repro/internal/noc"
)

// Leaky carries an exported node id.
type Leaky struct{ Node noc.NodeID }

// Opaque hides its routing state: an opaque reply handle.
type Opaque struct{ node noc.NodeID }

func GetLeaky() *Leaky   { return &Leaky{} }
func GetOpaque() *Opaque { return &Opaque{} }

func Ping(n noc.NodeID)      {}
func Deleg(s kif.CapSel)     {}
func UseOpaque(o *Opaque)    {}
`},
	"repro/internal/m3": {"m3.go": `package m3

import (
	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/noc"
)

func App() {
	dtu.Ping(noc.NodeID(3))    // NodeID arg: app->hw, banned
	dtu.Deleg(kif.CapSel(7))   // CapSel arg: app->hw, banned
	l := dtu.GetLeaky()        // exported NodeID field result: banned
	_ = l
	o := dtu.GetOpaque()       // opaque handle: fine
	dtu.UseOpaque(o)           // opaque handle arg: fine
}
`},
}

func TestCapFlowLayerCrossings(t *testing.T) {
	diags := diagsOf(runModuleOn(t, capFixture), "capflow")
	checkFindings(t, diags, []finding{{10, "capflow"}, {11, "capflow"}, {12, "capflow"}})
	for i, callee := range []string{"dtu.Ping", "dtu.Deleg", "dtu.GetLeaky"} {
		if i < len(diags) && !strings.Contains(diags[i].Message, "repro/internal/"+callee) {
			t.Errorf("finding %d should name %s: %s", i, callee, diags[i].Message)
		}
	}
}

// //m3vet:allow is the one way to accept a module-pass finding: with a
// reason it removes the finding on its own line or the line below; a
// bare allow suppresses nothing and is itself reported.
func TestCapFlowAllowSuppression(t *testing.T) {
	overlay := map[string]map[string]string{}
	for path, files := range capFixture {
		overlay[path] = files
	}
	overlay["repro/internal/m3"] = map[string]string{"m3.go": `package m3

import (
	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/noc"
)

func App() {
	dtu.Deleg(kif.CapSel(7)) //m3vet:allow capflow
	dtu.Ping(noc.NodeID(3))  //m3vet:allow capflow boot probe of a fixed node
	//m3vet:allow capflow the leaky handle is dropped unread
	l := dtu.GetLeaky()
	_ = l
}
`}
	checkFindings(t, runModuleOn(t, overlay), []finding{{10, "capflow"}, {10, "m3vet"}})
}

// Kernel<->hw NodeID traffic is legitimate (the kernel programs DTU
// endpoints with node ids); only app-layer contact is banned. kif
// itself is the sanctioned carrier for selectors.
func TestCapFlowAllowedCrossings(t *testing.T) {
	overlay := map[string]map[string]string{
		"repro/internal/kif": {"kif.go": `package kif

type CapSel uint64

func Marshal(s CapSel) []byte { return nil }
`},
		"repro/internal/noc": {"noc.go": `package noc

type NodeID int
`},
		"repro/internal/dtu": {"dtu.go": `package dtu

import "repro/internal/noc"

func Configure(n noc.NodeID) {}
`},
		"repro/internal/core": {"core.go": `package core

import (
	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/noc"
)

func Activate(sel kif.CapSel) {
	dtu.Configure(noc.NodeID(1)) // kernel->hw node id: allowed
	_ = kif.Marshal(sel)         // selector into kif: the sanctioned channel
}
`},
	}
	if diags := diagsOf(runModuleOn(t, overlay), "capflow"); len(diags) != 0 {
		t.Fatalf("want no capflow findings, got:\n%s", diagText(diags))
	}
}

func TestCapFlowMessages(t *testing.T) {
	for _, d := range diagsOf(runModuleOn(t, capFixture), "capflow") {
		if !strings.Contains(d.Message, "kif syscall/delegation") &&
			!strings.Contains(d.Message, "translate it at the boundary") {
			t.Errorf("message should explain the sanctioned channel: %s", d.Message)
		}
	}
}
