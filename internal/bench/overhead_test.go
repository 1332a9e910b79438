package bench

import (
	"errors"
	"strings"
	"testing"

	"confide/internal/metrics"
)

// TestMetricsOverheadSmoke guards the harness, not the budget: a tiny cell
// is noise-dominated, so only structural properties are asserted. The <2%
// check runs at full size via `make overhead` (recorded in EXPERIMENTS.md).
func TestMetricsOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	cells, err := MetricsOverhead(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Cell != "ABS" || cells[1].Cell != "SCF-AR" {
		t.Fatalf("cells = %+v, want ABS and SCF-AR", cells)
	}
	for _, res := range cells {
		if res.EnabledTPS <= 0 || res.DisabledTPS <= 0 {
			t.Fatalf("non-positive throughput: %+v", res)
		}
		if !strings.Contains(res.String(), "delta") {
			t.Errorf("String() = %q", res.String())
		}
	}
	// The harness must restore the registry state it found.
	if !metrics.Default().Enabled() {
		t.Error("registry left disabled after overhead run")
	}
}

// TestSecretsConcurrent drives the shared-secrets accessor from many
// goroutines; under -race this pins down the sync.Once initialization.
func TestSecretsConcurrent(t *testing.T) {
	const goroutines = 16
	results := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			s, err := secrets()
			if err == nil && s == nil {
				err = errors.New("secrets() returned nil without error")
			}
			results <- err
		}()
	}
	for i := 0; i < goroutines; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}
