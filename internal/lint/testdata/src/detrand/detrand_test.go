package detrand

import (
	"os"
	"testing"
)

// TestHelperMode reads the environment in a test file: test code is
// never an entry point, but a use in a simulation package is still
// flagged.
func TestHelperMode(t *testing.T) {
	if os.Getenv("DETFLOW_HELPER") != "" { // want "simulation package uses os.Getenv"
		t.Skip("helper mode")
	}
}
