package analysis

import "testing"

const goroutineFixture = `package p

func f(ch chan int) {
	go f(ch)
	ch <- 1
	_ = <-ch
	select {}
	close(ch)
	ch2 := make(chan int)
	for v := range ch2 {
		_ = v
	}
}
`

func TestNoGoroutineFlagsConcurrencyOutsideSim(t *testing.T) {
	got := runOn(t, []*Analyzer{NoGoroutine}, "repro/internal/m3", map[string]string{"f.go": goroutineFixture}, nil)
	checkFindings(t, got, []finding{
		{4, "nogoroutine"},  // go statement
		{5, "nogoroutine"},  // channel send
		{6, "nogoroutine"},  // channel receive
		{7, "nogoroutine"},  // select
		{8, "nogoroutine"},  // close
		{9, "nogoroutine"},  // make(chan)
		{10, "nogoroutine"}, // range over channel
	})
}

func TestNoGoroutineFlagsConcurrencyInsideSim(t *testing.T) {
	// The engine hands off to coroutine processes and needs no Go
	// concurrency of its own, so internal/sim has no exemption.
	src := `package sim

func spawn(fn func()) chan struct{} {
	go fn()
	return make(chan struct{})
}
`
	got := runOn(t, []*Analyzer{NoGoroutine}, "repro/internal/sim", map[string]string{"f.go": src}, nil)
	checkFindings(t, got, []finding{
		{4, "nogoroutine"}, // go statement
		{5, "nogoroutine"}, // make(chan)
	})
}

func TestNoGoroutineCleanCodeIsQuiet(t *testing.T) {
	src := `package p

func f(xs []int) int {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return sum
}
`
	got := runOn(t, []*Analyzer{NoGoroutine}, "repro/internal/m3", map[string]string{"f.go": src}, nil)
	checkFindings(t, got, nil)
}
