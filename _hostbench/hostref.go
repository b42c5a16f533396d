package main

import "runtime"

// The host reference. Shared VMs change speed by a quarter or more
// between busy and calm periods: a neighbour on the sibling hyperthread
// or on the memory bus slows every instruction, and the process CPU
// clock cannot tell that apart from a slower program. So each worker
// also times a fixed piece of plain Go next to its simulations, made of
// the primitives the simulator's host time goes to: goroutine hand-offs
// over unbuffered channels (a simulated process switch), 4 KiB copies
// (DRAM and RDMA), map updates and small allocations (m3fs, DTU and
// kernel bookkeeping). Nothing in it calls into the repository, so no
// change to the simulator can move it; it moves only with the host.
// The host-time metrics are scaled by refNominalNs / (the worker's
// median reference time): they read as the time the simulation would
// have taken on the host in the state it was in when refNominalNs was
// measured.

const (
	refRoundTrips = 1000
	refCopies     = 1500
	refMapOps     = 12000
	refSrcBytes   = 8 << 20
)

// refNominalNs is hostRef's median process CPU time on an idle
// 2-vCPU x86-64 VM (Go 1.24). It only sets the scale of the normalised
// figures; any fixed value would do.
const refNominalNs = 2.5e6

var (
	refSrc  = genBytes(1, refSrcBytes) // real pages, not the shared zero page
	refDst  = make([]byte, 4<<10)
	refSink int
)

// hostRef runs the reference once and returns its process CPU time in
// nanoseconds.
func hostRef() int64 {
	c0 := cpuTime()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < refRoundTrips; i++ {
		ping <- i
		refSink += <-pong
	}
	close(ping)
	<-pong

	off := 0
	for i := 0; i < refCopies; i++ {
		off = (off + 7*len(refDst) + 64) % (len(refSrc) - len(refDst))
		copy(refDst, refSrc[off:])
		refSink += int(refDst[i%len(refDst)])
	}

	m := make(map[uint64][]byte)
	for i := 0; i < refMapOps; i++ {
		k := uint64(i) * 0x9E3779B97F4A7C15 % 4093
		if b, ok := m[k]; ok {
			refSink += len(b)
			delete(m, k)
			continue
		}
		m[k] = make([]byte, 48+i%80)
	}
	refSink += len(m)
	runtime.KeepAlive(m)
	return cpuTime() - c0
}
