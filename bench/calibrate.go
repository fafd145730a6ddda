package main

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The benchmark runs on machines shared with other work, whose speed
// swings by ±15% within a second and by up to 2x between minutes. CPU
// time per request swings with wall time, so the swing is in the CPU
// itself, not in scheduling, and the guest sees no steal time. Every
// window therefore alternates load slices with timings of a fixed
// reference kernel, run with the clients paused on as many goroutines
// as there are clients, and reports its timings scaled to the speed at
// which the kernel takes refNominal. The kernel uses only the standard
// library, so no change to tdx can move it. On ten-run sets this cut the
// quartile spread of throughput from 6-30% to 2.5-5% (bench/README.md).

// refNominal is the reference kernel's median time on the 2-CPU machine
// the benchmark was defined on; it fixes the scale of the reported
// timings.
const refNominal = 75 * time.Millisecond

// refNominalCPU is the CPU time the kernel took alongside refNominal.
const refNominalCPU = 140 * time.Millisecond

// speed is how much slower than nominal the machine ran: in wall time,
// which scales wall-clock timings, and in CPU time, which scales CPU
// timings. They differ when the machine loses whole CPUs for a while:
// wall time stretches, but work costs no more CPU time when it runs.
type speed struct{ wall, cpu float64 }

// refRounds is how many kernel rounds each goroutine runs per timing.
const refRounds = 8

// slice is the load time between two reference timings.
const slice = time.Second

// reference is the kernel: map inserts, a sort and a JSON round trip
// over a few MB, the kinds of work tdxd does per request.
func reference() int {
	const n = 20000
	m := make(map[string]int, n)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := strconv.Itoa(i * 7919 % 100003)
		m[k] += i
		keys = append(keys, k)
	}
	slices.Sort(keys)
	data, err := json.Marshal(keys[:4000])
	if err != nil {
		panic(err) // marshaling strings cannot fail
	}
	var back []string
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err) // the bytes were just marshaled
	}
	return len(m) + len(back)
}

// refTiming is one timing of the reference kernel.
type refTiming struct {
	wall time.Duration
	cpu  time.Duration // CPU time this process spent meanwhile
}

// timeReference runs the kernel refRounds times on each of clients
// goroutines at once.
func timeReference() refTiming {
	cpu0, start := processCPU(), time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < refRounds; j++ {
				reference()
			}
		}()
	}
	wg.Wait()
	return refTiming{wall: time.Since(start), cpu: processCPU() - cpu0}
}

// processCPU returns this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
