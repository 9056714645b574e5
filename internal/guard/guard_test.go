package guard

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"testing"
)

func TestSafeRunPassthrough(t *testing.T) {
	if err := SafeRun(func() error { return nil }); err != nil {
		t.Fatalf("SafeRun(nil-returning fn) = %v", err)
	}
	want := errors.New("boom")
	if err := SafeRun(func() error { return want }); err != want {
		t.Fatalf("SafeRun passed through %v, want %v", err, want)
	}
}

func TestSafeRunRecoversPanic(t *testing.T) {
	err := SafeRun(func() error { panic("index out of range") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("SafeRun returned %T, want *PanicError", err)
	}
	if pe.Value != "index out of range" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
	// The message is exactly the panic value — no stacks or goroutine
	// IDs — so merged results stay byte-identical across worker counts.
	if got := pe.Error(); got != "panic: index out of range" {
		t.Fatalf("PanicError.Error() = %q", got)
	}
}

func TestSafeRunRecoversTypedPanic(t *testing.T) {
	sentinel := errors.New("deadline")
	err := SafeRun(func() error { panic(sentinel) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("SafeRun returned %T, want *PanicError", err)
	}
	if pe.Value != sentinel {
		t.Fatalf("PanicError.Value = %v, want the sentinel", pe.Value)
	}
}

// TestCrashPointKills re-executes the test binary with the crash point
// armed and asserts the process dies with exit status 137.
func TestCrashPointKills(t *testing.T) {
	//lint:ignore detflow subprocess re-exec handshake: the env var selects helper mode, it never feeds a simulation result
	if os.Getenv("GUARD_TEST_CRASH") == "1" {
		CrashPoint("not-this-one") // a miss must not kill
		CrashPoint("test/crash-here")
		t.Fatal("unreachable: crash point did not fire")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashPointKills$")
	//lint:ignore detflow subprocess re-exec handshake: the child inherits the test environment plus the crash-point arming
	cmd.Env = append(os.Environ(), "GUARD_TEST_CRASH=1", CrashPointEnv+"=test/crash-here")
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("subprocess err = %v, want an exit error", err)
	}
	if code := ee.ExitCode(); code != 137 {
		t.Fatalf("subprocess exit code = %d, want 137", code)
	}
}

// TestDisabledGuardZeroAlloc pins the contract that the disabled (nil)
// guard hot path allocates nothing.
func TestDisabledGuardZeroAlloc(t *testing.T) {
	var b *Breaker
	allocs := testing.AllocsPerRun(1000, func() {
		if !b.Allow() {
			panic("nil guard shed")
		}
		b.Success()
		b.Failure()
	})
	if allocs != 0 {
		t.Fatalf("disabled guard hot path allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkDisabledGuardHotPath(b *testing.B) {
	var br *Breaker
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !br.Allow() {
			b.Fatal("nil guard shed")
		}
		br.Success()
	}
}

func BenchmarkEnabledBreakerAllow(b *testing.B) {
	br := NewBreaker(BreakerOptions{Now: func() int64 { return 0 }})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		br.Allow()
		br.Success()
	}
}

// BenchmarkClosedBreakerAllow times Allow alone on a closed breaker,
// which takes the lock-free path.
func BenchmarkClosedBreakerAllow(b *testing.B) {
	br := NewBreaker(BreakerOptions{Now: func() int64 { return 0 }})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !br.Allow() {
			b.Fatal("closed breaker shed")
		}
	}
}

func ExamplePanicError() {
	err := SafeRun(func() error { panic(42) })
	fmt.Println(err)
	// Output: panic: 42
}
