package protocol

import "math"

// Packed wire formats for the four protocol phases. Every phase message is
// a batch of small fixed-width records, which the programs pack into
// []uint64 words and ship with simnet's Broadcast, tagged by one of the
// kinds below. The engine copies words into its round arenas — no
// per-message heap allocation survives a round.
//
// All IDs, hop counters, sizes and distances are non-negative int32 values,
// so a pair packs losslessly into one word as high<<32 | low. Election
// indexes are float64 and ride math.Float64bits, which is exact.
const (
	// kindIDBatch: K-hop discovery. One word per entry: ID<<32 | hops.
	kindIDBatch uint8 = 1
	// kindSizeBatch: centrality flooding. Two words per entry:
	// ID<<32 | size, then hops.
	kindSizeBatch uint8 = 2
	// kindClaim: site election. Exactly two words: ID<<32 | hops, then
	// Float64bits(index).
	kindClaim uint8 = 3
	// kindVoronoiBatch: Voronoi flooding. One word per entry:
	// site<<32 | dist.
	kindVoronoiBatch uint8 = 4
)

// packPair packs two non-negative int32 values into one word.
func packPair(hi, lo int32) uint64 {
	return uint64(uint32(hi))<<32 | uint64(uint32(lo))
}

// unpackPair undoes packPair.
func unpackPair(w uint64) (hi, lo int32) {
	return int32(uint32(w >> 32)), int32(uint32(w))
}

// packClaim and unpackClaim code an election claim as two words.
func packClaim(c claim) (w0, w1 uint64) {
	return packPair(c.ID, c.Hops), math.Float64bits(c.Index)
}

func unpackClaim(w0, w1 uint64) claim {
	id, hops := unpackPair(w0)
	return claim{ID: id, Hops: hops, Index: math.Float64frombits(w1)}
}
