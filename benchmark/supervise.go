package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// limits is what the watchdog holds a child to. live.RunMulti above its
// knee neither fails nor honours its own Timeout (see README, Known
// issues), so a run must be bounded from outside the process.
type limits struct {
	deadline time.Duration
	rssMB    int
}

// rssCeilingMB is several times what the largest workload needs.
const rssCeilingMB = 2048

// childProcs is the GOMAXPROCS, and so the worker count, of every child:
// one. The calibration sandbox slows a guest that keeps both of its cores
// busy (by a third within a minute, for minutes), and run after run of
// this benchmark would do exactly that; on one processor the same runs
// repeat within a few percent. The live workloads, a dozen goroutines
// that mostly sleep, spend a third less processor time per packet on one
// processor than on two, and spread 7 % where they spread 20 %.
const childProcs = 1

// child runs one workload in a supervised child process of this binary
// and returns what it reported.
func (rn *runner) child(workload string, seed int64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(rn.seconds, 'g', -1, 64), "-trace", trace, "-out", rn.outDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	// Three times the nominal run: the measured seconds, doubled for the
	// legs of a traced run, plus set-up.
	nominal := time.Duration((2*rn.seconds + 15) * float64(time.Second))
	out, err := supervise(cmd, limits{deadline: min(3*nominal, 170*time.Second), rssMB: rssCeilingMB})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	var res result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s: child result: %w", workload, err)
	}
	return &res, nil
}

// supervise runs cmd to completion and returns its standard output. It
// kills the child, and says why, when it outlives the deadline or its
// resident set passes the ceiling.
func supervise(cmd *exec.Cmd, lim limits) ([]byte, error) {
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	deadline := time.NewTimer(lim.deadline)
	defer deadline.Stop()
	poll := time.NewTicker(100 * time.Millisecond)
	defer poll.Stop()
	kill := func(why string) ([]byte, error) {
		_ = cmd.Process.Kill() // it may have just exited; Wait reports either way
		<-done
		return nil, fmt.Errorf("watchdog killed the run: %s", why)
	}
	for {
		select {
		case err := <-done:
			if err != nil {
				return nil, fmt.Errorf("child: %w", err)
			}
			return out.Bytes(), nil
		case <-deadline.C:
			return kill(fmt.Sprintf("still running after %v", lim.deadline))
		case <-poll.C:
			if mb := procStatusKB(cmd.Process.Pid, "VmRSS") / 1024; mb > lim.rssMB {
				return kill(fmt.Sprintf("resident set %d MB above the %d MB ceiling", mb, lim.rssMB))
			}
		}
	}
}

// procStatusKB reads one kB-valued field, such as VmRSS or VmHWM, of a
// process's /proc status; zero if the process is gone. VmHWM is the peak
// resident set of the current program: unlike ru_maxrss it starts afresh
// at exec, so a child does not inherit the runner's peak.
func procStatusKB(pid int, field string) int {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(l, field+":"); ok {
			kb, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(rest), " kB"))
			return kb
		}
	}
	return 0
}
