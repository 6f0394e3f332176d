package store

import (
	"fmt"
	"sort"
)

// Partitioner maps keys to partitions. Applications decide whether data is
// hash- or range-partitioned, and clients must know the scheme (Section
// 6.1; the paper stores it in Zookeeper, here it is replicated state and
// the deployment routes its clients by the committed one).
type Partitioner interface {
	// N returns the number of partitions.
	N() int
	// PartitionOf returns the partition owning a key.
	PartitionOf(key string) int
	// PartitionsForRange returns the partitions that may hold keys in
	// [from, to] (to == "" means unbounded).
	PartitionsForRange(from, to string) []int
}

// HashPartitioner assigns keys by FNV hash modulo the partition count.
// Range scans must visit every partition.
type HashPartitioner struct {
	n int
}

// NewHashPartitioner creates a hash partitioner over n partitions.
func NewHashPartitioner(n int) *HashPartitioner {
	if n <= 0 {
		n = 1
	}
	return &HashPartitioner{n: n}
}

// N implements Partitioner.
func (p *HashPartitioner) N() int { return p.n }

// fnv1a32 constants (hash/fnv's 32-bit offset basis and prime). The hash
// is inlined over the string so the per-key ownership check — run for
// every data command and every scanned entry — neither copies the key to
// a byte slice nor allocates a hasher. The values are bit-identical to
// hash/fnv's New32a, so partition assignments (and therefore every
// existing deployment's data placement) are unchanged.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// PartitionOf implements Partitioner.
func (p *HashPartitioner) PartitionOf(key string) int {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return int(h % uint32(p.n))
}

// PartitionsForRange implements Partitioner: hash partitioning scatters
// ranges everywhere, so scans go to all partitions.
func (p *HashPartitioner) PartitionsForRange(_, _ string) []int {
	out := make([]int, p.n)
	for i := range out {
		out[i] = i
	}
	return out
}

// RangePartitioner assigns keys by sorted boundary keys: key slot i covers
// [bounds[i-1], bounds[i]), with the first slot unbounded below and the
// last unbounded above. Each slot maps to a partition index through an
// assignment table, so an online split can carve a new slot out of an
// existing partition and hand it to a freshly added partition index, and
// an online merge can hand a partition's slots to a neighbor and drop the
// partition index — in both cases without renumbering any other partition
// (renumbering would silently remap every deployed replica group).
//
// The partition index space may therefore be sparse: merging away a
// partition whose index is not the highest leaves that index permanently
// retired (no slot assigns to it), while merging away the highest index
// shrinks the space so the index can be recycled by a later split.
type RangePartitioner struct {
	bounds []string // len = slots-1, sorted
	assign []int    // len = slots; assign[slot] = partition index owning it
}

// NewRangePartitioner creates a range partitioner with the given upper
// boundaries (exclusive) for all but the last partition. The boundaries
// are sorted; n = len(bounds)+1, and slot i is partition i.
func NewRangePartitioner(bounds []string) *RangePartitioner {
	b := append([]string(nil), bounds...)
	sort.Strings(b)
	assign := make([]int, len(b)+1)
	for i := range assign {
		assign[i] = i
	}
	return &RangePartitioner{bounds: b, assign: assign}
}

// newRangePartitionerAssigned rebuilds a partitioner from recorded
// state (bounds must already be sorted). The assignment need not be a
// permutation: after a merge a partition owns several slots, and retired
// indexes of merged-away partitions may be absent entirely. It must only
// be well-formed — non-negative indexes, one per slot.
func newRangePartitionerAssigned(bounds []string, assign []int) (*RangePartitioner, error) {
	if len(assign) != len(bounds)+1 {
		return nil, fmt.Errorf("store: %d assignments for %d slots", len(assign), len(bounds)+1)
	}
	for _, a := range assign {
		if a < 0 || a > 0xFFFF {
			return nil, fmt.Errorf("store: assignment %v out of range", assign)
		}
	}
	return &RangePartitioner{
		bounds: append([]string(nil), bounds...),
		assign: append([]int(nil), assign...),
	}, nil
}

// Bounds returns the boundary keys (copy).
func (p *RangePartitioner) Bounds() []string { return append([]string(nil), p.bounds...) }

// Assignments returns the slot-to-partition table (copy).
func (p *RangePartitioner) Assignments() []int { return append([]int(nil), p.assign...) }

// N implements Partitioner: the size of the partition index space,
// 1 + the highest assigned index. Retired indexes of merged-away
// partitions below the maximum still count — indexes are never renumbered,
// so arrays indexed by partition must span them.
func (p *RangePartitioner) N() int {
	max := 0
	for _, a := range p.assign {
		if a > max {
			max = a
		}
	}
	return max + 1
}

func (p *RangePartitioner) slotOf(key string) int {
	// First boundary strictly greater than key identifies the slot.
	return sort.SearchStrings(p.bounds, key+"\x00")
}

// PartitionOf implements Partitioner.
func (p *RangePartitioner) PartitionOf(key string) int {
	return p.assign[p.slotOf(key)]
}

// PartitionsForRange implements Partitioner: only partitions overlapping
// [from, to] are involved (this is what makes range-partitioned scans
// cheaper, Section 6.1). A partition owning several slots after a merge
// appears once.
func (p *RangePartitioner) PartitionsForRange(from, to string) []int {
	lo := p.slotOf(from)
	hi := len(p.assign) - 1
	if to != "" {
		hi = p.slotOf(to)
	}
	out := make([]int, 0, hi-lo+1)
	seen := make(map[int]bool, hi-lo+1)
	for i := lo; i <= hi; i++ {
		if !seen[p.assign[i]] {
			seen[p.assign[i]] = true
			out = append(out, p.assign[i])
		}
	}
	return out
}

// Split returns a new partitioner in which the key range [splitKey, hi) of
// splitKey's current slot is carved into its own slot owned by partition
// newPart (the next free partition index). All other slots keep their
// partition assignment, so only ownership of the moved range changes —
// the invariant the online repartitioning protocol relies on. splitKey
// must fall strictly inside its slot.
func (p *RangePartitioner) Split(splitKey string, newPart int) (*RangePartitioner, error) {
	if newPart != p.N() {
		return nil, fmt.Errorf("store: split must assign the next partition index %d, got %d", p.N(), newPart)
	}
	s := p.slotOf(splitKey)
	if s > 0 && p.bounds[s-1] == splitKey {
		return nil, fmt.Errorf("store: split key %q is already a boundary", splitKey)
	}
	bounds := make([]string, 0, len(p.bounds)+1)
	bounds = append(bounds, p.bounds[:s]...)
	bounds = append(bounds, splitKey)
	bounds = append(bounds, p.bounds[s:]...)
	assign := make([]int, 0, len(p.assign)+1)
	assign = append(assign, p.assign[:s+1]...) // slot s keeps [lo, splitKey)
	assign = append(assign, newPart)           // new slot [splitKey, hi)
	assign = append(assign, p.assign[s+1:]...)
	return &RangePartitioner{bounds: bounds, assign: assign}, nil
}

// Merge returns a new partitioner in which every slot of partition donor is
// handed to partition survivor, dropping the donor's index from the
// assignment without renumbering any other partition — the inverse of
// Split, and the key-mapping half of an online partition merge. The donor
// must own a slot adjacent to one of the survivor's (merging adjacent
// ranges is what keeps range scans contiguous). Adjacent slots with the
// same owner are coalesced, removing the boundary between them, so a later
// split at the same key works again; when the donor held the highest index
// the index space shrinks and the index can be recycled.
func (p *RangePartitioner) Merge(donor, survivor int) (*RangePartitioner, error) {
	if donor == survivor {
		return nil, fmt.Errorf("store: merge of partition %d into itself", donor)
	}
	donorSlots, survivorSlots, adjacent := 0, 0, false
	for i, a := range p.assign {
		switch a {
		case donor:
			donorSlots++
			if (i > 0 && p.assign[i-1] == survivor) || (i+1 < len(p.assign) && p.assign[i+1] == survivor) {
				adjacent = true
			}
		case survivor:
			survivorSlots++
		}
	}
	if donorSlots == 0 {
		return nil, fmt.Errorf("store: merge donor %d owns no range", donor)
	}
	if survivorSlots == 0 {
		return nil, fmt.Errorf("store: merge survivor %d owns no range", survivor)
	}
	if !adjacent {
		return nil, fmt.Errorf("store: partitions %d and %d are not adjacent", donor, survivor)
	}
	bounds := append([]string(nil), p.bounds...)
	assign := append([]int(nil), p.assign...)
	for i, a := range assign {
		if a == donor {
			assign[i] = survivor
		}
	}
	// Coalesce same-owner neighbors: drop the boundary between them.
	for i := len(assign) - 1; i > 0; i-- {
		if assign[i] == assign[i-1] {
			assign = append(assign[:i], assign[i+1:]...)
			bounds = append(bounds[:i-1], bounds[i:]...)
		}
	}
	return &RangePartitioner{bounds: bounds, assign: assign}, nil
}
