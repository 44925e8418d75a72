//go:build !linux

// Command bench needs IP_PKTINFO, sched_setaffinity and getrusage as
// Linux has them; elsewhere it only says so.
package main

import (
	"fmt"
	"os"
)

func main() {
	fmt.Println("bench: linux only")
	os.Exit(1)
}
