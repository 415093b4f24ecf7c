package core_test

import (
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/statcheck"
)

// TestSupportBitsOnStatcheckCorpus: on every oracle-corpus graph the
// support bit equals support > 0 from the frozen exact counts and from
// exhaustive butterfly listing.
func TestSupportBitsOnStatcheckCorpus(t *testing.T) {
	for _, c := range statcheck.LongCorpus() {
		core.CheckSupportBits(t, c.Name, c.G)
	}
}
