// Package leak is a test helper that fails a test when it leaks
// goroutines. It exists because every long-lived component in this repo
// (the daemon's worker pool, its storage probe and event feeds) promises
// that Close/Stop tears down everything it started — a promise only a
// counter can keep honest.
package leak

import (
	"runtime"
	"testing"
	"time"
)

// Check snapshots the goroutine count now and registers a cleanup that
// requires the count to return to within slack of the snapshot before
// deadline-ish (5s), GC-ing and re-polling in between: goroutine exits
// are asynchronous even after a clean Close. On failure it dumps all
// stacks so the leaked goroutine is named, not guessed.
//
// Call it first in the test, before starting the component under test,
// so its cleanup runs after the component's own t.Cleanup teardown.
func Check(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		const slack = 2
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if n := runtime.NumGoroutine(); n <= before+slack {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutines leaked: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	})
}
