package guard

import (
	"errors"
	"testing"
)

func TestWatchdogBudget(t *testing.T) {
	w := NewWatchdog(10)
	if w.expired {
		t.Fatal("fresh watchdog already expired")
	}
	if err := w.Tick(4); err != nil {
		t.Fatalf("Tick(4) = %v within budget", err)
	}
	if err := w.Tick(6); err != nil {
		t.Fatalf("Tick(6) = %v at exactly the budget", err)
	}
	if got := w.remaining; got != 0 {
		t.Fatalf("remaining budget = %d, want 0", got)
	}
	if err := w.Tick(1); !errors.Is(err, ErrWatchdogExpired) {
		t.Fatalf("Tick past budget = %v, want ErrWatchdogExpired", err)
	}
	if !w.expired {
		t.Fatal("watchdog not marked expired after expiry")
	}
	// Expiry is sticky.
	if err := w.Tick(0); !errors.Is(err, ErrWatchdogExpired) {
		t.Fatalf("Tick after expiry = %v, want ErrWatchdogExpired", err)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	if w := NewWatchdog(0); w != nil {
		t.Fatal("Budget 0 should return the nil (disabled) watchdog")
	}
	if w := NewWatchdog(-5); w != nil {
		t.Fatal("negative budget should return the nil watchdog")
	}
	var w *Watchdog
	if err := w.Tick(1 << 40); err != nil {
		t.Fatalf("nil watchdog Tick = %v, want nil", err)
	}
}
