//go:build linux

package netio

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// tickSleep is the tick-driven shard loop's sleep to the next wheel
// tick, taken in the kernel with nanosleep rather than on a runtime
// timer. A goroutine parked on a timer leaves its thread idle in
// epoll_wait, which watches every socket the runtime polls, the shard's
// own included: under load each ACK landing during the sleep woke the
// process for nothing, since no goroutine reads that socket until the
// tick.
//
// The call is raw, so the shard keeps its P through the sleep. Through
// syscall.Syscall the P would sit in the syscall state, and sysmon would
// hand it every tick to a spare thread that finds nothing to run and
// parks in epoll_wait (on serve_fanout, 2 vCPUs, about 138 context
// switches per 1,000 packets against 36 raw: netio.srv.ctxsw_per_kpkt).
// The one yield after the sleep is where other goroutines, GC workers
// among them, get the P: with every P in a shard loop they run once per
// tick, and a goroutine waiting on the network only when sysmon polls,
// about every 10 ms. A stop-the-world's preemption signal ends the
// sleep with EINTR; the shard loop then finds nothing due and sleeps
// again.
func tickSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0) // EINTR, the only failure here, ends the sleep early
	runtime.Gosched()
}
