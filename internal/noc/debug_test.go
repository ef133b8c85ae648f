package noc

import (
	"fmt"
	"strings"
	"testing"
)

// TestDumpStateShowsNICRecords checks that DumpState lists a busy NIC's
// current packet, its pending end-to-end retries and its waiting packets
// separately, and the network's record counts.
func TestDumpStateShowsNICRecords(t *testing.T) {
	cfg := channelConfig()
	cfg.DependencyWindow = 1
	cfg.ForcedErrorRate = 3e-4
	n, err := New(cfg, uniformGen(t, cfg, 0.3, 1200), StaticController(ModeCRC))
	if err != nil {
		t.Fatal(err)
	}
	retry := -1
	for retry < 0 && !n.Drained() {
		n.Step()
		for id, q := range n.nics {
			if len(q.retry) > 0 && q.queued() > dumpWaiting {
				retry = id
				break
			}
		}
	}
	if retry < 0 {
		t.Fatal("no NIC held a retry and a backlog at once")
	}
	var b strings.Builder
	n.DumpState(&b)
	out := b.String()
	pi := &n.recs[n.nics[retry].retry[0]]
	for _, want := range []string{
		fmt.Sprintf("records: live=%d slab=%d free=%d", n.liveRecs(), len(n.recs), len(n.recFree)),
		"  nic: cur=",
		fmt.Sprintf(" [pkt%d retry%d notBefore=%d]", pi.id, pi.retries, pi.notBefore),
		fmt.Sprintf("  nic waiting=%d:", n.nics[retry].queued()),
		fmt.Sprintf(" +%d more", n.nics[retry].queued()-dumpWaiting),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DumpState lacks %q:\n%s", want, out)
		}
	}
}
