package noc

import (
	"math/rand"
	"testing"
)

// minDistanceOrder is the switch arbiter the request masks replaced,
// kept as the oracle: from a candidate list in port×VC scan order it
// repeatedly takes the candidate at the smallest circular distance from
// saRR (swap-removing it), returning the order it examines them in.
func minDistanceOrder(cands []int16, saRR, total int) []int {
	cands = append([]int16(nil), cands...)
	var order []int
	for len(cands) > 0 {
		bestIdx, bestDist := 0, total+1
		for i, c := range cands {
			if d := (int(c) - saRR + total) % total; d < bestDist {
				bestIdx, bestDist = i, d
			}
		}
		order = append(order, int(cands[bestIdx]))
		cands[bestIdx] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return order
}

// maskOrder is the order arbitrateOutput examines a request mask in.
func maskOrder(req uint64, saRR int) []int {
	var order []int
	for req != 0 {
		slot := rrNext(req, saRR)
		order = append(order, slot)
		req &^= 1 << slot
	}
	return order
}

// TestRequestMaskMatchesMinDistanceScan shows the mask round-robin
// examines requesters — and so grants the first eligible one — in exactly
// the order of the min-distance scan, for random masks and pointers at
// every VC count a Config allows.
func TestRequestMaskMatchesMinDistanceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for vcs := 1; vcs <= maxVCs; vcs++ {
		total := NumPorts * vcs
		for trial := 0; trial < 2000; trial++ {
			var req uint64
			var cands []int16
			density := rng.Float64()
			for slot := 0; slot < total; slot++ {
				if rng.Float64() < density {
					req |= 1 << slot
					cands = append(cands, int16(slot))
				}
			}
			saRR := rng.Intn(total)
			want := minDistanceOrder(cands, saRR, total)
			got := maskOrder(req, saRR)
			if len(got) != len(want) {
				t.Fatalf("VCs=%d req=%#x saRR=%d: %d grants examined, want %d", vcs, req, saRR, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("VCs=%d req=%#x saRR=%d: order %v, want %v", vcs, req, saRR, got, want)
				}
			}
		}
	}
}
