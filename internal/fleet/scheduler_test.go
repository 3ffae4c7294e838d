package fleet

import (
	"reflect"
	"testing"
)

func slots(loads ...float64) []ServerSlot {
	out := make([]ServerSlot, len(loads))
	for i, l := range loads {
		out[i] = ServerSlot{Index: i, BaseLoad: l}
	}
	return out
}

func insts(pressures ...float64) []Instance {
	out := make([]Instance, len(pressures))
	for i, p := range pressures {
		out[i] = Instance{App: "app", Pressure: p}
	}
	return out
}

func TestRoundRobinPlacesInOrder(t *testing.T) {
	got := RoundRobin{}.Place(insts(5, 1, 3), slots(0.9, 0.1, 0.5, 0.2))
	want := []int{0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-robin placement = %v, want %v", got, want)
	}
}

func TestLeastLoadedPrefersIdleServers(t *testing.T) {
	// Loads 0.9, 0.1, 0.5, 0.2 → fill order should be servers 1, 3, 2, 0.
	got := LeastLoaded{}.Place(insts(1, 1, 1), slots(0.9, 0.1, 0.5, 0.2))
	want := []int{1, 3, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("least-loaded placement = %v, want %v", got, want)
	}
}

func TestLeastLoadedBreaksTiesByIndex(t *testing.T) {
	got := LeastLoaded{}.Place(insts(1, 1), slots(0.5, 0.5, 0.5))
	want := []int{0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tied placement = %v, want %v", got, want)
	}
}

func TestContentionAwarePairsAggressorsWithIdleServers(t *testing.T) {
	// Instance pressures 10, 90, 50: the heaviest (instance 1) must land
	// on the least-loaded server (1), the lightest (instance 0) on the
	// most-loaded server actually used.
	got := ContentionAware{}.Place(insts(10, 90, 50), slots(0.9, 0.1, 0.5, 0.2))
	want := []int{2, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("contention-aware placement = %v, want %v", got, want)
	}
}

func TestContentionAwareStableOnEqualPressure(t *testing.T) {
	got := ContentionAware{}.Place(insts(7, 7, 7), slots(0.3, 0.1, 0.2))
	want := []int{1, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("equal-pressure placement = %v, want %v", got, want)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, p := range Policies() {
		got, err := PolicyByName(p.Name())
		if err != nil || got.Name() != p.Name() {
			t.Fatalf("PolicyByName(%q) = %v, %v", p.Name(), got, err)
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Fatal("PolicyByName(bogus) should fail")
	}
}

func TestSystemByName(t *testing.T) {
	cases := map[string]System{"none": SystemNone, "pc3d": SystemPC3D, "PC3D": SystemPC3D, "reqos": SystemReQoS}
	for name, want := range cases {
		got, err := SystemByName(name)
		if err != nil || got != want {
			t.Fatalf("SystemByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := SystemByName("magic"); err == nil {
		t.Fatal("SystemByName(magic) should fail")
	}
}

// doubleBooker violates the no-double-booking contract on purpose.
type doubleBooker struct{}

func (doubleBooker) Name() string { return "double-booker" }
func (doubleBooker) Place(instances []Instance, servers []ServerSlot) []int {
	return make([]int, len(instances)) // everything on server 0
}

func TestPlaceRejectsDoubleBooking(t *testing.T) {
	f := &Fleet{cfg: Config{Servers: 3, Instances: 2, Policy: doubleBooker{}}.withDefaults()}
	f.cal.pressure = map[string]float64{}
	if err := f.place([]string{"a", "b"}); err == nil {
		t.Fatal("place should reject a double-booking policy")
	}
}

func TestDistOf(t *testing.T) {
	d := distOf([]float64{0.4, 0.2, 1.0, 0.8, 0.6})
	if d.Mean != 0.6 || d.P50 != 0.6 || d.P95 != 1.0 || d.Min != 0.2 {
		t.Fatalf("distOf = %+v", d)
	}
	if z := distOf(nil); z != (Dist{}) {
		t.Fatalf("distOf(nil) = %+v", z)
	}
}

func TestServerSeedsDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		s := serverSeed(7, i)
		if seen[s] {
			t.Fatalf("duplicate seed for server %d", i)
		}
		seen[s] = true
	}
	if serverSeed(7, 3) != serverSeed(7, 3) {
		t.Fatal("serverSeed must be deterministic")
	}
}
