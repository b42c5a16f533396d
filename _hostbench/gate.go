package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/sim"
)

// The correctness gate. Every simulation must finish without error or
// deadlock, leave the filesystem the generator's model predicts, and
// reproduce the simulated results pinned for its seed in pins.json:
// the final cycle, the run-phase cycles, and (with the obs stack
// armed) the hash of the run capture. pins.json was produced with
// -pin on the tree this benchmark was introduced on; a seed outside it
// is checked for agreement among all simulations of the run instead.

// heldOutSeed is never used while tuning the benchmark or a change:
// later claims must also hold on it.
const heldOutSeed = 20161

//go:embed pins.json
var pinsJSON []byte

// pinFile maps workload -> decimal seed -> [final, run, capture].
type pinFile struct {
	HeldOut uint64                         `json:"held_out_seed"`
	Seeds   map[string]map[string][]uint64 `json:"seeds"`
}

type gate struct {
	pin       []uint64 // nil: seed not pinned
	ref       *simResult
	attempted int
	failed    int
	broken    bool // a non-simulation check failed (probe, profile)
	notes     []string
}

func newGate(workload string, seed uint64) *gate {
	g := &gate{}
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		g.failNote("pins.json: " + err.Error())
		return g
	}
	g.pin = pf.Seeds[workload][strconv.FormatUint(seed, 10)]
	if g.pin == nil {
		g.notes = append(g.notes, fmt.Sprintf("seed %d is not pinned: simulations are checked for agreement with each other", seed))
	}
	return g
}

func (g *gate) failNote(msg string) {
	g.broken = true
	if len(g.notes) < 8 {
		g.notes = append(g.notes, "FAIL: "+msg)
	}
}

// check gates one simulation.
func (g *gate) check(s simResult) {
	g.attempted++
	err := s.Err
	if err == "" {
		want := g.pin
		if want == nil {
			if g.ref == nil {
				g.ref = &s
			}
			want = []uint64{g.ref.Final, g.ref.Run, g.ref.Capture}
		}
		switch {
		case want == nil:
		case s.Run != want[1]:
			err = fmt.Sprintf("run phase took %d cycles, want %d", s.Run, want[1])
		case s.Final != want[0]:
			err = fmt.Sprintf("final cycle %d, want %d", s.Final, want[0])
		case len(want) > 2 && s.Capture != want[2]:
			err = fmt.Sprintf("capture hash %x, want %x", s.Capture, want[2])
		}
	}
	if err != "" {
		g.failed++
		if len(g.notes) < 8 {
			g.notes = append(g.notes, "FAIL: "+err)
		}
	}
}

func (g *gate) addWorkers(outs []workerOutcome) {
	for _, o := range outs {
		if o.rep == nil {
			n := o.req.Sims + 1
			g.attempted += n
			g.failed += n
			g.failNote(o.err.Error())
			continue
		}
		g.check(o.rep.Warm)
		for _, s := range o.rep.Sims {
			g.check(s)
		}
	}
}

// writePins runs one simulation per workload and seed (0..n-1 and the
// held-out seed), each in its own worker process, and writes pins.json.
func writePins(w io.Writer, n int) error {
	pf := pinFile{HeldOut: heldOutSeed, Seeds: map[string]map[string][]uint64{}}
	seeds := []uint64{heldOutSeed}
	for s := 0; s < n; s++ {
		seeds = append(seeds, uint64(s))
	}
	for _, wl := range workloadNames {
		pf.Seeds[wl] = map[string][]uint64{}
		for _, seed := range seeds {
			var rep workerReport
			req, _ := json.Marshal(workerReq{Workload: wl, Seed: seed})
			if err := spawn(&rep, "-worker", string(req)); err != nil {
				return err
			}
			s := rep.Warm
			if s.Err != "" {
				return fmt.Errorf("%s seed %d: %s", wl, seed, s.Err)
			}
			pin := []uint64{s.Final, s.Run}
			if s.Capture != 0 {
				pin = append(pin, s.Capture)
			}
			pf.Seeds[wl][strconv.FormatUint(seed, 10)] = pin
		}
	}
	return json.NewEncoder(w).Encode(pf)
}

// selfTest proves the gate: unperturbed simulations pass, and with
// bench.M3Options.DispatchCostDelta = +1 cycle every one fails. It
// also checks that the benchmark's platform equals the harness's and
// that the meta op mix is still the measured one.
func selfTest() error {
	for _, wl := range []string{wBulk, wMeta} {
		for _, delta := range []sim.Time{0, 1} {
			g := newGate(wl, heldOutSeed)
			var rep workerReport
			req, _ := json.Marshal(workerReq{Workload: wl, Seed: heldOutSeed, Sims: 1, Delta: delta})
			t := time.Now()
			o := workerOutcome{req: workerReq{Sims: 1}, err: spawn(&rep, "-worker", string(req))}
			if o.err == nil {
				o.rep = &rep
			}
			g.addWorkers([]workerOutcome{o})
			fmt.Printf("selftest %-5s seed %d dispatch delta %+d: %d of %d simulations failed the gate (%v)\n",
				wl, heldOutSeed, delta, g.failed, g.attempted, time.Since(t).Round(time.Millisecond))
			if delta == 0 && g.failed != 0 {
				return fmt.Errorf("selftest: unperturbed %s fails the gate: %v", wl, g.notes)
			}
			if delta != 0 && g.failed != g.attempted {
				return fmt.Errorf("selftest: the gate missed a +%d-cycle dispatch perturbation on %s", delta, wl)
			}
		}
	}
	if err := harnessParity(); err != nil {
		return err
	}
	return mixParity()
}
