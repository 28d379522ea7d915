package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// In a virtual machine an idle vCPU halts, and waking it goes through the
// host: tens of microseconds at best, milliseconds when the host is busy.
// A closed loop with one request in flight blocks on every RPC, so every
// RPC pays that wake-up, and the cost is the sandbox's, not the
// program's: on the 2-vCPU box this was written on, a couple-small logged
// put read 1.07 ms at the median and 2.5-4.1 ms at the mean, run to run,
// with the vCPUs allowed to halt, and 0.64 / 0.81 ms with them kept awake.
// The benchmark therefore keeps every CPU awake while it measures: one
// child per CPU spinning at the lowest scheduling priority, which the
// kernel preempts the moment a thread of the benchmark becomes runnable.

const spinChildFlag = "-spin-child"

// spinChild is the child's whole life: lower the priority of this thread,
// spin on it, and exit when the parent closes the pipe (or dies).
func spinChild() {
	runtime.LockOSThread()
	// On Linux, who = 0 names the calling thread.
	syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for {
	}
}

// keepAwake starts one spinning child per CPU and returns the function
// that stops them and waits until each has ended.
func keepAwake() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	type child struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
	}
	var children []child
	stop = func() {
		for _, c := range children {
			c.stdin.Close()
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe, spinChildFlag)
		stdin, err := cmd.StdinPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			stop()
			return nil, fmt.Errorf("start idle spinner: %w", err)
		}
		children = append(children, child{cmd, stdin})
	}
	return stop, nil
}
