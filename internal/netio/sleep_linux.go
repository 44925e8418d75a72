//go:build linux

package netio

import (
	"syscall"
	"time"
)

// tickSleep is the tick-driven shard loop's sleep to the next wheel
// tick, taken in the kernel with nanosleep rather than on a runtime
// timer. A goroutine parked on a timer leaves its thread idle in
// epoll_wait, which watches every socket the runtime polls, the shard's
// own included: under load each ACK landing during the sleep woke the
// process for nothing, since no goroutine reads that socket until the
// tick. nanosleep goes through syscall.Syscall, and that costs a
// hand-off every tick: the P is left in the syscall state, sysmon
// retakes it during the sleep and hands it to another thread, which
// finds nothing to run and parks, and the shard's thread takes a P back
// on return. On serve_fanout that is about 144 context switches per
// 1,000 packets (netio.srv.ctxsw_per_kpkt, 2 vCPUs); what it buys is
// that a GC need not wait for the sleep to end. An EINTR ends the sleep
// early; the shard loop then finds nothing due and sleeps again.
func tickSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR, the only failure here, ends the sleep early
}
