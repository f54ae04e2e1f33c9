// Package host implements the vSCC communication task: the multithreaded
// daemon inside the SCC host driver that the paper extends from a
// transparent packet router into an active communication engine with a
// software cache, a write-combining buffer, and a virtual DMA controller,
// all controlled by memory-mapped registers (paper §3.2/§3.3).
//
// The task classifies incoming off-chip requests by consulting a region
// table that each rank populates at startup ("each rank has to register
// start address and length of the communication buffer to the
// communication task", §3.1). Synchronization-flag regions always bypass
// the task's buffers; data regions are handled according to their mode.
package host

import (
	"fmt"

	"vscc/internal/mem"
)

// Kind classifies a registered on-chip memory region.
type Kind int

const (
	// KindData marks message-payload memory (cacheable / combinable).
	KindData Kind = iota
	// KindFlag marks synchronization flags: accesses bypass all
	// transparent buffers of the communication task (§3.1).
	KindFlag
)

// String names the kind.
func (k Kind) String() string {
	if k == KindFlag {
		return "flag"
	}
	return "data"
}

// Mode selects how the communication task treats a data region.
type Mode int

const (
	// ModeTransparent forwards every request — the previous prototype's
	// behaviour (simple routing).
	ModeTransparent Mode = iota
	// ModeCached serves remote reads from a host-side software copy that
	// the owner keeps consistent with explicit update/invalidate commands
	// (the local-put/remote-get accelerator, Fig. 4b).
	ModeCached
	// ModeWriteCombining absorbs remote writes into a host buffer and
	// flushes them to the device in bursts (the remote-put accelerator,
	// Fig. 4c).
	ModeWriteCombining
	// ModePosted marks a registered communication buffer whose writes the
	// SIF may post under the new (non-transparent) protocol: the
	// communication task owns delivery and ordering, so the core is not
	// stalled for an acknowledgement. The vSCC direct small-message path
	// uses this.
	ModePosted
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeCached:
		return "cached"
	case ModeWriteCombining:
		return "write-combining"
	case ModePosted:
		return "posted"
	}
	return "transparent"
}

// Region is one registered span of a device's on-chip memory.
type Region struct {
	Dev, Tile, Off, Len int
	Kind                Kind
	Mode                Mode
	// Owner is the core id (on Dev) that registered the region and is
	// allowed to issue update/invalidate commands for it.
	Owner int

	// The communication task's state for the region, set by
	// Task.Register and dropped by UnregisterAt: the host software copy
	// of a ModeCached region with the reader streams it feeds (creation
	// order), and the write-combining buffer of a ModeWriteCombining
	// region.
	cache   *cacheEntry
	streams []*stream
	wcb     *hostWCB
}

// Contains reports whether (tile, off) on the region's device falls
// inside the region.
func (rg *Region) Contains(tile, off int) bool {
	return tile == rg.Tile && off >= rg.Off && off < rg.Off+rg.Len
}

// regionTable indexes regions by (dev, tile) for per-line lookups.
type regionTable struct {
	byTile map[[2]int][]*Region
}

func newRegionTable() *regionTable {
	return &regionTable{byTile: make(map[[2]int][]*Region)}
}

// add registers a region, rejecting overlaps on the same tile.
func (t *regionTable) add(rg *Region) error {
	if rg.Len <= 0 || rg.Off < 0 || rg.Off+rg.Len > mem.LMBSize {
		return fmt.Errorf("host: region [%d,%d) outside tile LMB", rg.Off, rg.Off+rg.Len)
	}
	key := [2]int{rg.Dev, rg.Tile}
	for _, other := range t.byTile[key] {
		if rg.Off < other.Off+other.Len && other.Off < rg.Off+rg.Len {
			return fmt.Errorf("host: region [%d,%d) overlaps [%d,%d) on dev %d tile %d",
				rg.Off, rg.Off+rg.Len, other.Off, other.Off+other.Len, rg.Dev, rg.Tile)
		}
	}
	t.byTile[key] = append(t.byTile[key], rg)
	return nil
}

// remove drops a region from the table (tenant teardown).
func (t *regionTable) remove(rg *Region) {
	key := [2]int{rg.Dev, rg.Tile}
	regs := t.byTile[key]
	for i, other := range regs {
		if other == rg {
			t.byTile[key] = append(regs[:i], regs[i+1:]...)
			return
		}
	}
}

// on returns the regions registered on (dev, tile), in registration
// order.
func (t *regionTable) on(dev, tile int) []*Region { return t.byTile[[2]int{dev, tile}] }

// find returns the region containing (dev, tile, off), or nil.
func (t *regionTable) find(dev, tile, off int) *Region {
	for _, rg := range t.on(dev, tile) {
		if rg.Contains(tile, off) {
			return rg
		}
	}
	return nil
}
