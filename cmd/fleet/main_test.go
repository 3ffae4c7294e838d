package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/loadgen"
)

// TestCheckDiurnal: the diurnal flags accept a finite period (0 = off) and
// load levels in [0, 1], and reject everything else with a fleet: error.
func TestCheckDiurnal(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		d  loadgen.Diurnal
		ok bool
	}{
		{loadgen.Diurnal{Period: 0, Low: 0.25, High: 0.95}, true},
		{loadgen.Diurnal{Period: 20, Low: 0, High: 1}, true},
		{loadgen.Diurnal{Period: -1, Low: 0.25, High: 0.95}, false},
		{loadgen.Diurnal{Period: nan, Low: 0.25, High: 0.95}, false},
		{loadgen.Diurnal{Period: inf, Low: 0.25, High: 0.95}, false},
		{loadgen.Diurnal{Period: -inf, Low: 0.25, High: 0.95}, false},
		{loadgen.Diurnal{Period: 20, Low: nan, High: 0.95}, false},
		{loadgen.Diurnal{Period: 20, Low: -0.5, High: 0.95}, false},
		{loadgen.Diurnal{Period: 20, Low: 0.25, High: 1.5}, false},
		{loadgen.Diurnal{Period: 20, Low: 0.25, High: nan}, false},
	} {
		err := checkDiurnal(tc.d)
		if (err == nil) != tc.ok {
			t.Errorf("checkDiurnal(%+v) = %v, want ok=%v", tc.d, err, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "fleet: ") {
			t.Errorf("checkDiurnal(%+v) error %q lacks the fleet: prefix", tc.d, err)
		}
	}
}
