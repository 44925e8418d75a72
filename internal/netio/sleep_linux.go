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
// tick. nanosleep goes through syscall.Syscall, so the runtime hands
// the P off while it sleeps and a GC does not wait for it. An EINTR
// ends the sleep early; the shard loop then finds nothing due and
// sleeps again.
func tickSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR, the only failure here, ends the sleep early
}
