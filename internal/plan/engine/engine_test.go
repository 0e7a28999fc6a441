package engine

import "testing"

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": Threshold, "auto": Threshold, "threshold": Threshold,
		"solver": ForceSolver, "heuristic": ForceHeuristic,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"bogus", "portfolio"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("ParsePolicy(%s) accepted", bad)
		}
	}
}
