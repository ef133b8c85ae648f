package noc

import "testing"

func TestPerRouterSummaries(t *testing.T) {
	cfg := channelConfig()
	n, err := New(cfg, uniformGen(t, cfg, 0.15, 1500), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunUntilDrained(2_000_000); err != nil {
		t.Fatal(err)
	}
	per := n.PerRouter()
	if len(per) != 16 {
		t.Fatalf("want 16 router summaries, got %d", len(per))
	}
	var flits uint64
	for _, s := range per {
		if s.X != s.ID%4 || s.Y != s.ID/4 {
			t.Fatalf("router %d has wrong coordinates (%d,%d)", s.ID, s.X, s.Y)
		}
		if s.TempC < 45 || s.TempC > 150 {
			t.Fatalf("router %d temperature %g implausible", s.ID, s.TempC)
		}
		if s.StaticJoules <= 0 {
			t.Fatalf("router %d accrued no static energy", s.ID)
		}
		if s.DeltaVth <= 0 {
			t.Fatalf("router %d accrued no wear", s.ID)
		}
		flits += s.FlitsForwarded
	}
	if flits == 0 {
		t.Fatal("no traffic recorded in per-router stats")
	}
	// Busier central routers must out-forward corner routers under
	// uniform traffic (more through-traffic).
	if per[5].FlitsForwarded <= per[0].FlitsForwarded/4 {
		t.Fatalf("central router should forward more than a corner: %d vs %d",
			per[5].FlitsForwarded, per[0].FlitsForwarded)
	}
}
