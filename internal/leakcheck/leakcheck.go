// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package whose code starts goroutines calls it from TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// OpenFDs is the file-descriptor half: a test counts before it opens
// something and after its Close, and compares.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests, then waits up to three seconds for every goroutine
// they started to exit — a Close that does not join its workers shows up
// here. If some remain, it prints their stacks and exits 1.
func Main(m *testing.M) {
	code := m.Run()
	if code != 0 {
		os.Exit(code)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		left := leaked()
		if len(left) == 0 {
			os.Exit(0)
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests:\n\n%s\n", len(left), strings.Join(left, "\n\n"))
			os.Exit(1)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// OpenFDs returns how many file descriptors the process holds, read from
// /proc/self/fd (so only on Linux). The listing's own descriptor and the
// runtime's poller, which the first open creates, count the same in every
// call, so two counts compare exactly.
func OpenFDs(t testing.TB) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatalf("leakcheck: %v", err)
	}
	return len(fds)
}

// leaked returns the stacks of every goroutine but the caller's and the
// signal handler's, which the runtime and testing start for themselves.
func leaked() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	// The dump lists the calling goroutine first, then one stanza per
	// other goroutine, separated by blank lines.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if !strings.Contains(g, "os/signal.") && !strings.Contains(g, "runtime.ensureSigM") {
			out = append(out, g)
		}
	}
	return out
}
