package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
)

// launchReport is what the launcher (./launcher) reports for a program.
type launchReport struct {
	WallNS   int64
	MaxRSSKB int64
	Exit     int
}

// launched is a program under test started through the launcher.
type launched struct {
	cmd    *exec.Cmd
	report *os.File // read end of the report pipe
}

// startLaunched starts program through the launcher in bin with the given
// output writers. The caller must call wait.
func startLaunched(bin, program string, args []string, stdout, stderr io.Writer) (*launched, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(bin, "launcher"), append([]string{program}, args...)...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.ExtraFiles = []*os.File{pw}
	// Its own process group, which the program joins, so kill can stop both.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, err
	}
	return &launched{cmd: cmd, report: pr}, nil
}

// wait waits for the launcher and returns the program's report. A program
// that exited non-zero is an error carrying the report.
func (l *launched) wait() (launchReport, error) {
	var r launchReport
	data, readErr := io.ReadAll(l.report)
	l.report.Close()
	waitErr := l.cmd.Wait()
	if waitErr != nil {
		return r, fmt.Errorf("launcher: %w", waitErr)
	}
	if readErr != nil {
		return r, readErr
	}
	if _, err := fmt.Sscan(string(data), &r.WallNS, &r.MaxRSSKB, &r.Exit); err != nil {
		return r, fmt.Errorf("launcher report %q: %w", data, err)
	}
	if r.Exit != 0 {
		return r, fmt.Errorf("exit status %d", r.Exit)
	}
	return r, nil
}

// signal sends sig to the launcher, which relays it to the program.
func (l *launched) signal(sig os.Signal) error {
	return l.cmd.Process.Signal(sig)
}

// kill stops the launcher and the program at once.
func (l *launched) kill() error {
	return syscall.Kill(-l.cmd.Process.Pid, syscall.SIGKILL)
}
