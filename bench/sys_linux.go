//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// setAffinity pins task tid (0 = the calling thread) to one CPU.
func setAffinity(tid, cpu int) error {
	var mask [16]uint64 // 1024 CPUs, the kernel's default cpu_set_t
	mask[cpu/64] = 1 << (uint(cpu) % 64)
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity(%d, cpu %d): %w", tid, cpu, e)
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on, lowest first.
func allowedCPUs() ([]int, error) {
	var mask [16]uint64
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var cpus []int
	for i, w := range mask {
		for b := 0; b < 64; b++ {
			if w&(1<<uint(b)) != 0 {
				cpus = append(cpus, i*64+b)
			}
		}
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("sched_getaffinity: empty mask")
	}
	return cpus, nil
}

// pinProcess pins every thread of this process to cpu. Threads the Go
// runtime starts later inherit the mask from the thread that clones
// them, so two passes over /proc/self/task (the second catches a thread
// born during the first) pin the whole process for good.
func pinProcess(cpu int) error {
	for pass := 0; pass < 2; pass++ {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, cpu); err != nil && pass == 1 {
				return err
			}
		}
	}
	return nil
}

// usage is one getrusage(RUSAGE_SELF) reading, with the peak RSS from
// procfs.
type usage struct {
	UserUs   int64 `json:"user_us"`
	SysUs    int64 `json:"sys_us"`
	CtxSw    int64 `json:"ctxsw"`
	MaxRSSKB int64 `json:"maxrss_kb"`
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return usage{
		UserUs:   ru.Utime.Sec*1e6 + ru.Utime.Usec,
		SysUs:    ru.Stime.Sec*1e6 + ru.Stime.Usec,
		CtxSw:    ru.Nvcsw + ru.Nivcsw,
		MaxRSSKB: peakRSSKB(),
	}
}

// peakRSSKB is this process's resident-set high-water mark, VmHWM of
// /proc/self/status. ru_maxrss will not do for a child: it survives
// fork and exec, so it starts at whatever the forking benchmark
// process held, which after a traced run is hundreds of MB.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		panic(err) // procfs is what the rest of the benchmark stands on
	}
	_, rest, ok := strings.Cut(string(b), "VmHWM:")
	if !ok {
		panic("no VmHWM in /proc/self/status")
	}
	kb, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
	if err != nil {
		panic(err)
	}
	return kb
}

func (u usage) cpuUs() int64 { return u.UserUs + u.SysUs }
