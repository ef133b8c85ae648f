package noc

import (
	"fmt"
	"io"
)

// DumpState writes a human-readable snapshot of every router's pipeline,
// buffer, channel and power state — the first tool to reach for when a
// configuration wedges.
func (n *Network) DumpState(w io.Writer) {
	fmt.Fprintf(w, "cycle=%d outstanding=%d genExhausted=%v\n", n.cycle, n.outstanding, n.gen.Exhausted())
	for id, r := range n.routers {
		busy := false
		for p := 0; p < NumPorts; p++ {
			if r.in[p] != nil && n.portOccupancy(id, p) > 0 {
				busy = true
			}
			if r.in[p] != nil && r.in[p].ch != nil && r.in[p].ch.len() > 0 {
				busy = true
			}
		}
		q := n.nics[id]
		if q.pending() {
			busy = true
		}
		if !busy {
			continue
		}
		fmt.Fprintf(w, "router %d (%d,%d) mode=%s gated=%v waking=%d\n", id, r.x, r.y, r.mode, n.rGated[id], n.rWaking[id])
		if q.pending() {
			cur := "none"
			if q.cur != nil {
				cur = fmt.Sprintf("pkt%d flit %d/%d vc=%d", q.cur.id, q.nextIdx, q.cur.flits, q.curVC)
			}
			fmt.Fprintf(w, "  nic: queued=%d cur=%s\n", q.queued(), cur)
		}
		for p := 0; p < NumPorts; p++ {
			ip := r.in[p]
			if ip == nil {
				continue
			}
			if ip.ch != nil && ip.ch.len() > 0 {
				fmt.Fprintf(w, "  in[%s].ch:", PortName(p))
				for i := 0; i < ip.ch.len(); i++ {
					cf := ip.ch.at(i)
					fmt.Fprintf(w, " [pkt%d.%d %v vc%d@%d]", cf.flit.PacketID, cf.flit.Seq, cf.flit.Type, cf.flit.VC, cf.readyAt)
				}
				fmt.Fprintln(w)
			}
			for v := 0; v < n.cfg.VCs; v++ {
				i := n.vcIndex(id, p, v)
				ivc := &n.ivcs[i]
				if ivc.n == 0 && ivc.route < 0 {
					continue
				}
				fmt.Fprintf(w, "  in[%s].vc%d: route=%d outVC=%d buf=", PortName(p), v, ivc.route, ivc.outVC)
				for k := 0; k < int(ivc.n); k++ {
					f := n.vcAt(i, k)
					fmt.Fprintf(w, "[pkt%d.%d %v]", f.PacketID, f.Seq, f.Type)
				}
				fmt.Fprintln(w)
			}
		}
		for p := 0; p < NumPorts; p++ {
			if r.out[p] == nil {
				continue
			}
			base := n.vcIndex(id, p, 0)
			busy := n.vcBusy[base : base+n.cfg.VCs]
			for _, b := range busy {
				if b {
					fmt.Fprintf(w, "  out[%s]: vcBusy=%v credits=%v\n", PortName(p), busy, n.credits[base:base+n.cfg.VCs])
					break
				}
			}
		}
	}
}
