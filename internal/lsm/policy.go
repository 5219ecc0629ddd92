package lsm

// MergeCandidate is a proposed merge of the component range [Lo, Hi).
type MergeCandidate struct {
	Lo, Hi int
}

// Policy decides which components to merge given their sizes in bytes,
// ordered oldest to newest.
type Policy interface {
	// Pick returns a merge candidate, or ok=false when no merge is due.
	Pick(sizes []int64) (MergeCandidate, bool)
}

// Tiering is the paper's experimental merge policy (Section 6.1): a
// sequence of components is merged when the total size of the younger
// components exceeds SizeRatio times the size of the oldest component in
// the sequence. Components larger than MaxMergeableBytes are frozen and
// never merged again, simulating the effect of disk components accumulating
// during an experiment period.
type Tiering struct {
	// SizeRatio is 1.2 in all the paper's experiments.
	SizeRatio float64
	// MaxMergeableBytes caps mergeable component size (1 GB in the paper).
	// Zero means no cap.
	MaxMergeableBytes int64
	// MinComponents is the minimum number of components per merge (2).
	MinComponents int
}

// NewTiering returns the paper's configuration for the given cap.
func NewTiering(maxMergeable int64) *Tiering {
	return &Tiering{SizeRatio: 1.2, MaxMergeableBytes: maxMergeable, MinComponents: 2}
}

// Pick implements Policy.
func (p *Tiering) Pick(sizes []int64) (MergeCandidate, bool) {
	minC := p.MinComponents
	if minC < 2 {
		minC = 2
	}
	// Only the suffix of non-frozen components is eligible.
	start := 0
	if p.MaxMergeableBytes > 0 {
		for i := len(sizes) - 1; i >= 0; i-- {
			if sizes[i] > p.MaxMergeableBytes {
				start = i + 1
				break
			}
		}
	}
	// Oldest-first: merge [i, end) when the younger components together
	// outweigh component i by the ratio.
	for i := start; i+minC-1 < len(sizes); i++ {
		var younger int64
		for j := i + 1; j < len(sizes); j++ {
			younger += sizes[j]
		}
		if float64(younger) >= p.SizeRatio*float64(sizes[i]) {
			if p.MaxMergeableBytes > 0 && younger+sizes[i] > p.MaxMergeableBytes {
				continue
			}
			return MergeCandidate{Lo: i, Hi: len(sizes)}, true
		}
	}
	return MergeCandidate{}, false
}

// Leveling maintains one component per level with exponentially growing
// sizes (Section 2.1). Provided for completeness and ablations; the paper's
// experiments all use Tiering.
type Leveling struct {
	// SizeRatio is the target size ratio between adjacent levels.
	SizeRatio float64
}

// Pick implements Policy: the newest two components merge whenever the
// newer one has grown past older/SizeRatio.
func (p *Leveling) Pick(sizes []int64) (MergeCandidate, bool) {
	n := len(sizes)
	if n < 2 {
		return MergeCandidate{}, false
	}
	ratio := p.SizeRatio
	if ratio <= 1 {
		ratio = 10
	}
	for i := n - 2; i >= 0; i-- {
		if float64(sizes[i+1]) >= float64(sizes[i])/ratio {
			return MergeCandidate{Lo: i, Hi: n}, true
		}
	}
	return MergeCandidate{}, false
}
