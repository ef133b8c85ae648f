// Package noc is a cycle-level simulator of a 2D-mesh network-on-chip in
// the mould of Booksim2, which the paper modified for its evaluation:
// wormhole routers with virtual channels and a four-stage pipeline
// (RC → VA → SA → ST), credit-based flow control, X-Y dimension-order
// routing, plus the paper's architectural additions — multi-function
// adaptive channels (MFACs), per-router adaptive ECC, power gating with a
// stress-relaxing bypass path, and the five proactive operation modes that
// a pluggable Controller selects every time step.
package noc

import "intellinoc/internal/ecc"

// FlitType distinguishes the positions of a flit within its packet.
type FlitType int

const (
	// FlitHead opens a packet and carries the routing information.
	FlitHead FlitType = iota
	// FlitBody is a payload flit between head and tail.
	FlitBody
	// FlitTail closes a packet and releases resources behind it.
	FlitTail
	// FlitSingle is a one-flit packet (head and tail at once).
	FlitSingle
)

// IsHead reports whether the flit opens a packet.
func (t FlitType) IsHead() bool { return t == FlitHead || t == FlitSingle }

// IsTail reports whether the flit closes a packet.
func (t FlitType) IsTail() bool { return t == FlitTail || t == FlitSingle }

// Flit is the unit of flow control.
type Flit struct {
	ID       uint64
	PacketID uint64
	Type     FlitType
	Src, Dst int
	// VC is the virtual channel the flit occupies at the input port it
	// is heading to (assigned by the upstream router's VA stage).
	VC int
	// Seq is the flit's index within its packet.
	Seq int
	// rec is the slot of the packet's record in the network's record
	// slab, for as long as the packet is in flight.
	rec int32
	// Corrupt marks payload damage that slipped past (or was never
	// covered by) per-hop ECC; the end-to-end CRC catches it at the
	// destination.
	Corrupt bool
	// Payload carries real bytes when Config.VerifyPayloads is set, so
	// the bit-exact codecs run on the actual datapath.
	Payload []byte
}

// Mode is one of the paper's five proactive operation modes (Section 4).
type Mode int

const (
	// ModeBypass (mode 0, "stress-relaxing") power-gates the router and
	// forwards flits MFAC-to-MFAC through the bypass switch.
	ModeBypass Mode = iota
	// ModeCRC (mode 1, "basic error detection") disables per-hop ECC,
	// relying on end-to-end CRC; MFACs act as storage.
	ModeCRC
	// ModeSECDED (mode 2) enables per-hop SECDED; MFACs act as
	// re-transmission buffers.
	ModeSECDED
	// ModeDECTED (mode 3) enables per-hop DECTED; MFACs act as
	// re-transmission buffers.
	ModeDECTED
	// ModeRelaxed (mode 4) inserts an extra cycle per MFAC stage,
	// doubling link traversal time and suppressing timing errors.
	ModeRelaxed
)

// NumModes is the size of the action space.
const NumModes = 5

// maxVCs bounds the virtual channels per port (sizes the allocator's
// fixed scratch arrays; Table 1 designs use at most 4).
const maxVCs = 8

// maxBufDepth bounds the router-buffer slots per VC. Every VC's ring is
// allocated at full depth when the network is built, so the bound caps
// that memory (Table 1 designs use at most 4 slots).
const maxBufDepth = 64

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBypass:
		return "bypass"
	case ModeCRC:
		return "crc"
	case ModeSECDED:
		return "secded"
	case ModeDECTED:
		return "dected"
	case ModeRelaxed:
		return "relaxed"
	}
	return "unknown"
}

// Scheme maps the mode to the ECC scheme active on the router's output
// links. Bypassed routers have their encoders powered off, leaving only
// the end-to-end CRC; relaxed transmission also transmits without per-hop
// ECC but with doubled traversal time.
func (m Mode) Scheme() ecc.Scheme {
	switch m {
	case ModeSECDED:
		return ecc.SchemeSECDED
	case ModeDECTED:
		return ecc.SchemeDECTED
	default:
		return ecc.SchemeCRC
	}
}

// Relaxed reports whether links driven in this mode run with relaxed
// timing.
func (m Mode) Relaxed() bool { return m == ModeRelaxed }

// Port indices of a mesh router.
const (
	PortLocal = iota
	PortEast
	PortWest
	PortNorth
	PortSouth
	NumPorts
)

// PortName returns a short label for a port index.
func PortName(p int) string {
	switch p {
	case PortLocal:
		return "local"
	case PortEast:
		return "east"
	case PortWest:
		return "west"
	case PortNorth:
		return "north"
	case PortSouth:
		return "south"
	}
	return "?"
}

// opposite returns the port on the neighbouring router that faces port p.
func opposite(p int) int {
	switch p {
	case PortEast:
		return PortWest
	case PortWest:
		return PortEast
	case PortNorth:
		return PortSouth
	case PortSouth:
		return PortNorth
	}
	return PortLocal
}
