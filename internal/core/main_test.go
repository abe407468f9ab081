package core

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package's tests if any goroutine outlives them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
