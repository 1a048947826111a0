// Command launcher starts one program under test for the benchmark, relays
// SIGTERM and SIGINT to it, and when it exits writes
// "<wall ns> <peak RSS KB> <exit code>\n" to file descriptor 3.
//
//	launcher PROGRAM [ARGS...]
//
// It exists because a child's rusage Maxrss on Linux is not the child's own
// peak: Go starts children with vfork, and exec folds the peak RSS of the
// address space the child was forked from into the child's. Forked from the
// perfbench process, which holds a million-user scenario while it runs
// agg-1m, every child would report perfbench's peak. This program stays a
// few MB, so the peak it passes on is the program's own whenever that is
// larger than about 2 MB. The wall time runs from starting the program to
// its exit, so the launcher's own start-up is not counted.
package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "launcher:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return errors.New("usage: launcher PROGRAM [ARGS...]")
	}
	report := os.NewFile(3, "report")
	if report == nil {
		return errors.New("no report descriptor")
	}
	// The program must not inherit the report pipe: perfbench reads it to
	// the end, which would then wait for the program too.
	syscall.CloseOnExec(3)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	var err error
	for waiting := true; waiting; {
		select {
		case s := <-sigs:
			_ = cmd.Process.Signal(s) // the program may have exited already
		case err = <-exited:
			waiting = false
		}
	}
	wall := time.Since(start)
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return err
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	if _, err := fmt.Fprintf(report, "%d %d %d\n", int64(wall), rss, cmd.ProcessState.ExitCode()); err != nil {
		return err
	}
	return report.Close()
}
