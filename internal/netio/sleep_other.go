//go:build !linux

package netio

import "time"

// tickSleep is time.Sleep off linux, where the batch layer has no
// non-blocking read and the shard loop never takes its tick-driven
// branch (ErrNoTryRead).
func tickSleep(d time.Duration) { time.Sleep(d) }
