package noc

import (
	"fmt"
	"io"
)

// dumpWaiting bounds the waiting packets DumpState lists per NIC; a
// closed loop can back up thousands.
const dumpWaiting = 8

// DumpState writes a human-readable snapshot of every router's pipeline,
// buffer, channel and power state, and of every busy NIC's current
// packet, end-to-end retries and waiting packets — the first tool to
// reach for when a configuration wedges.
func (n *Network) DumpState(w io.Writer) {
	fmt.Fprintf(w, "cycle=%d outstanding=%d genExhausted=%v\n", n.cycle, n.outstanding, n.gen.Exhausted())
	fmt.Fprintf(w, "records: live=%d slab=%d free=%d flitPool=%d\n", n.liveRecs(), len(n.recs), len(n.recFree), len(n.flitPool))
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
			if q.cur >= 0 {
				pi := &n.recs[q.cur]
				cur = fmt.Sprintf("pkt%d flit %d/%d vc=%d", pi.id, q.nextIdx, pi.flits, q.curVC)
			}
			fmt.Fprintf(w, "  nic: cur=%s outstanding=%d\n", cur, q.outstanding)
			if k := len(q.retry); k > 0 {
				fmt.Fprint(w, "  nic retries (next first):")
				for i := k - 1; i >= 0; i-- {
					pi := &n.recs[q.retry[i]]
					fmt.Fprintf(w, " [pkt%d retry%d notBefore=%d]", pi.id, pi.retries, pi.notBefore)
				}
				fmt.Fprintln(w)
			}
			if k := q.queued(); k > 0 {
				fmt.Fprintf(w, "  nic waiting=%d:", k)
				for i, t := range q.wait[q.head:] {
					if i == dumpWaiting {
						fmt.Fprintf(w, " +%d more", k-i)
						break
					}
					fmt.Fprintf(w, " [pkt%d dst=%d flits=%d t=%d gap=%d]", t.id, t.dst, t.flits, t.time, t.gap)
				}
				fmt.Fprintln(w)
			}
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
