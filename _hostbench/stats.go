package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/obs"
)

// quantile returns the nearest-rank q-quantile of v (the interpolated
// median for q = 0.5), or NaN for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if q == 0.5 {
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[rank(n, q)]
}

func rank(n int, q float64) int {
	return max(0, int(math.Ceil(q*float64(n)))-1)
}

// tailQuantile is each workload's tail percentile: the highest one
// with at least ten samples beyond it at the sample count a run of
// --seconds 30 or more collects on a 2-core host. It is fixed per workload, not
// picked per run, so runs with slightly different counts stay
// comparable.
var tailQuantile = map[string]float64{wBulk: 0.9, wMeta: 0.9, wScale: 0.75, wObserved: 0.85}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuTime returns the process's CPU time (user + system, all threads)
// in nanoseconds. Unlike wall time it leaves out the time the host
// took the CPUs away from this process.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// provenance records what produced a result.
func provenance(seed uint64) string {
	return fmt.Sprintf("# provenance: seed=%d held_out_seed=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s engine=serial-calendar",
		seed, heldOutSeed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

// commit names the source tree: the git HEAD when the checkout has
// one, else a digest of every Go source and go.mod below the working
// directory.
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
			return strings.TrimSpace(string(id))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// harnessParity checks that the benchmark's platform is the harness's.
// It runs the generated programs through the entry points the CLIs use
// and checks that they reproduce the pins the benchmark's own platform
// produced: bench.RunM3Stats for bulk and meta, bench.RunM3Stats with
// the obs stack armed as m3bench -capture arms it for observed (capture
// hash included), and bench.RunM3Instances for scale, on sixteen copies
// of one client (RunM3Instances runs one program on every client).
func harnessParity() error {
	for _, wl := range []string{wBulk, wMeta, wObserved} {
		in, err := genInputs(wl, heldOutSeed)
		if err != nil {
			return err
		}
		opt := bench.M3Options{}
		var prof *obs.Profiler
		var cp *obs.CritPath
		if wl == wObserved {
			prof = obs.NewProfiler()
			cp = obs.NewCritPath(obs.CritPathOptions{})
			opt.Obs = obs.New(obs.Options{Sink: func(ev obs.Event) {
				prof.Consume(ev)
				cp.Consume(ev)
			}})
			opt.SampleEvery = witnessSampleEvery
		}
		bd, st, err := bench.RunM3Stats(in.programs()[0], opt)
		if err != nil {
			return fmt.Errorf("selftest: bench.RunM3Stats %s: %w", wl, err)
		}
		s := simResult{Final: uint64(st.FinalTime), Run: uint64(bd.Total)}
		if wl == wObserved {
			if s.Capture, err = captureHash(in.name, opt.Obs, prof, cp); err != nil {
				return err
			}
		}
		g := newGate(wl, heldOutSeed)
		g.check(s)
		fmt.Printf("selftest %-8s bench.RunM3Stats: final cycle %d, run phase %d cycles, capture %x: %d of %d failed the gate\n",
			wl, s.Final, s.Run, s.Capture, g.failed, g.attempted)
		if g.failed != 0 {
			return fmt.Errorf("selftest: the benchmark's platform differs from bench.RunM3Stats on %s: %v", wl, g.notes)
		}
	}

	in, err := genInputs(wScale, heldOutSeed)
	if err != nil {
		return err
	}
	same := &inputs{name: wScale}
	for range in.metas {
		same.metas = append(same.metas, in.metas[0])
	}
	r := simulate(same, simOpts{}, nil)
	if r.Err != "" {
		return fmt.Errorf("selftest: scale with identical clients: %s", r.Err)
	}
	mean, err := bench.RunM3Instances(same.programs()[0], scaleClients)
	if err != nil {
		return fmt.Errorf("selftest: bench.RunM3Instances: %w", err)
	}
	fmt.Printf("selftest %-8s bench.RunM3Instances: mean run phase %d cycles, benchmark %d\n",
		wScale, mean, r.Run/scaleClients)
	if r.Run/scaleClients != uint64(mean) {
		return fmt.Errorf("selftest: the benchmark's scale platform differs from bench.RunM3Instances")
	}
	return nil
}

// mixParity checks that opMix is still the measured mix.
func mixParity() error {
	total, _, err := measureMix()
	if err != nil {
		return err
	}
	fmt.Printf("selftest mix: measured %s\n", mixString(total))
	if total != opMix {
		return fmt.Errorf("selftest: the measured op mix %s is not opMix %s", mixString(total), mixString(opMix))
	}
	return nil
}
