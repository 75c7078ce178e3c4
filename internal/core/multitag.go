package core

import (
	"fmt"

	"witag/internal/tag"
)

// Multi-tag addressing. The paper's §7 notes the trigger bit pattern is
// chosen by the querier; nothing requires every tag to answer the same
// pattern. WiTAG deployments therefore address tags by assigning each a
// distinct trigger signature — a different high/low sequence — and tags
// answer only queries whose envelope matches their own pattern. Queries
// become a polling TDM scheme with zero tag-side coordination.

// maxAddressBits bounds trigger-pattern length: longer patterns spend
// subframes on addressing instead of data.
const maxAddressBits = 8

// TriggerPattern returns the high/low trigger sequence for a tag address.
// Patterns are constant-weight variants over patternLen subframes: the
// address selects which positions are high. Every pattern starts high and
// ends low so the detector always sees at least one edge of each polarity.
func TriggerPattern(address, patternLen int) ([]bool, error) {
	if patternLen < 3 || patternLen > maxAddressBits+2 {
		return nil, fmt.Errorf("core: pattern length %d outside [3,%d]", patternLen, maxAddressBits+2)
	}
	space := 1 << (patternLen - 2)
	if address < 0 || address >= space {
		return nil, fmt.Errorf("core: address %d outside [0,%d) for %d-subframe patterns", address, space, patternLen)
	}
	p := make([]bool, patternLen)
	p[0] = true
	p[patternLen-1] = false
	for i := 0; i < patternLen-2; i++ {
		p[1+i] = address>>uint(i)&1 == 1
	}
	return p, nil
}

// AddressedDetector returns a tag-side detector matched to an address.
func AddressedDetector(address, patternLen int, threshold float64) (*tag.Detector, error) {
	p, err := TriggerPattern(address, patternLen)
	if err != nil {
		return nil, err
	}
	d := tag.NewDetector(threshold)
	d.Pattern = p
	return d, nil
}
