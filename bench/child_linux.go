//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// child is a re-execution of this binary in another role (-role server
// or -role sim), pinned to its own CPU, speaking JSON lines on stdout
// and taking one-word commands on stdin.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	start time.Time // just before fork
}

var (
	liveMu sync.Mutex
	live   = map[*child]struct{}{}
)

// spawn starts the child on childCPU. Affinity is inherited across
// fork+exec from the forking thread, so the caller's (locked) thread
// borrows the child's mask for the duration of Start and then returns
// to parentCPU: every thread of the child is born pinned, with no race
// against the child's own runtime.
func spawn(parentCPU, childCPU int, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, childCPU); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<16), start: time.Now()}
	err = cmd.Start()
	if perr := setAffinity(0, parentCPU); err == nil {
		err = perr
	}
	if err != nil {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		return nil, err
	}
	liveMu.Lock()
	live[c] = struct{}{}
	liveMu.Unlock()
	return c, nil
}

// recv decodes the child's next stdout line into v.
func (c *child) recv(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("child %v: %w", c.cmd.Args[1:], err)
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("child %v said %q: %w", c.cmd.Args[1:], line, err)
	}
	return nil
}

// ask sends one command word and decodes the one-line reply.
func (c *child) ask(word string, v any) error {
	if _, err := io.WriteString(c.in, word+"\n"); err != nil {
		return err
	}
	return c.recv(v)
}

// stop closes the child's stdin (every role exits on EOF), waits for it
// to end, and kills it if it has not within five seconds.
func (c *child) stop() error {
	liveMu.Lock()
	_, alive := live[c]
	delete(live, c)
	liveMu.Unlock()
	if !alive {
		return nil
	}
	c.in.Close()
	t := time.AfterFunc(5*time.Second, func() { c.cmd.Process.Kill() })
	defer t.Stop()
	io.Copy(io.Discard, c.out)
	return c.cmd.Wait()
}

// stopAll ends every child still running; called on every exit path so
// the benchmark never leaves a process behind.
func stopAll() {
	liveMu.Lock()
	cs := make([]*child, 0, len(live))
	for c := range live {
		cs = append(cs, c)
	}
	liveMu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// lastWords is set by a child role just before it writes its last
// line, after which the parent may close stdin at any moment.
var lastWords atomic.Bool

// exitOnStdinEOF makes a child role die with its parent: the parent
// holds the write end of stdin, never writes to roles that use this, and
// closes it only once it has read the child's last line.
func exitOnStdinEOF() {
	go func() {
		io.Copy(io.Discard, os.Stdin)
		if !lastWords.Load() {
			os.Exit(3)
		}
	}()
}
