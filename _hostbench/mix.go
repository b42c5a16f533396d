package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/workload"
)

// The meta op mix is measured, not chosen: it is the per-kind count of
// the metadata calls the paper's five application benchmarks
// (workload.All: cat+tr, tar, untar, find, sqlite) make in their run
// phases on M3, counted at the workload.OS boundary. measureMix
// repeats that count; --mix prints it and --selftest checks that opMix
// still equals it.

// mixOS counts a client's calls by meta op kind.
type mixOS struct {
	workload.OS
	n *[numOpKinds]int
}

func (o mixOS) Open(path string, flags workload.OpenFlags) (workload.File, error) {
	if flags&workload.Create != 0 {
		o.n[mCreate]++
	} else {
		o.n[mRead]++
	}
	return o.OS.Open(path, flags)
}

func (o mixOS) Stat(path string) (workload.Stat, error) {
	o.n[mStat]++
	return o.OS.Stat(path)
}

func (o mixOS) ReadDir(path string) ([]string, error) {
	o.n[mReadDir]++
	return o.OS.ReadDir(path)
}

func (o mixOS) Unlink(path string) error {
	o.n[mUnlink]++
	return o.OS.Unlink(path)
}

// measureMix runs every benchmark of workload.All through
// bench.RunM3Stats and counts its run phase's calls per op kind.
func measureMix() (total [numOpKinds]int, per map[string][numOpKinds]int, err error) {
	per = map[string][numOpKinds]int{}
	for _, b := range workload.All() {
		var n [numOpKinds]int
		run := b.Run
		b.Run = func(os workload.OS) error { return run(mixOS{OS: os, n: &n}) }
		if _, _, err := bench.RunM3Stats(b, bench.M3Options{}); err != nil {
			return total, nil, fmt.Errorf("mix: %s: %w", b.Name, err)
		}
		per[b.Name] = n
		for k := range n {
			total[k] += n[k]
		}
	}
	return total, per, nil
}

func printMix() error {
	total, per, err := measureMix()
	if err != nil {
		return err
	}
	for _, b := range workload.All() {
		fmt.Printf("%-8s %v\n", b.Name, mixString(per[b.Name]))
	}
	fmt.Printf("%-8s %v\n", "total", mixString(total))
	return nil
}

func mixString(n [numOpKinds]int) string {
	s := ""
	for k, c := range n {
		s += fmt.Sprintf(" %s=%d", opNames[k], c)
	}
	return s[1:]
}
