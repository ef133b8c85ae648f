package noc

// RouterSummary is the per-router slice of a run's results: where the
// heat, wear and traffic actually landed on the die.
type RouterSummary struct {
	ID, X, Y       int
	TempC          float64
	DeltaVth       float64 // accumulated threshold shift (V)
	MTTFSeconds    float64
	StaticJoules   float64
	DynamicJoules  float64
	FlitsForwarded uint64
	Mode           Mode // mode in force when the snapshot was taken
	Gated          bool
}

// PerRouter returns one summary per router, indexed by node id. Like
// Snapshot, it may be called mid-run without changing the run.
func (n *Network) PerRouter() []RouterSummary {
	out := make([]RouterSummary, len(n.routers))
	for i, r := range n.routers {
		_, _, dv := n.aging.DeltaVth(n.wear[i])
		out[i] = RouterSummary{
			ID: i, X: r.x, Y: r.y,
			TempC:          n.grid.Temp(i),
			DeltaVth:       dv,
			MTTFSeconds:    n.aging.MTTFSeconds(n.wear[i]),
			StaticJoules:   n.staticJoules(i),
			DynamicJoules:  n.meters[i].DynamicJoules,
			Mode:           r.mode,
			Gated:          n.rGated[i],
			FlitsForwarded: n.meters[i].Events.XbarTraverses,
		}
	}
	return out
}
