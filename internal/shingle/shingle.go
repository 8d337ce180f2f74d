// Package shingle implements the min-hash shingle ordering used by the VNM
// family of overlay construction algorithms (paper §3.2.1, following
// Buehrer & Chellapilla and Chierichetti et al.): a reader's shingle is a
// signature of its input writers, and readers with similar adjacency lists
// receive, with high probability, equal or lexicographically close shingle
// vectors. Sorting readers by shingles and chunking the sorted list yields
// groups in which large bicliques are likely.
package shingle

import (
	"cmp"
	"slices"

	"repro/internal/bipartite"
	"repro/internal/graph"
)

// hash64 mixes a 64-bit value with a seed (splitmix64 finalizer); it is the
// per-permutation hash h_i of min-hashing.
func hash64(x uint64, seed uint64) uint64 {
	z := x + seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Empty sets sh to the shingles of the empty input list: all-max, so that
// empty readers sort together at the end.
func Empty(sh []uint64) {
	for i := range sh {
		sh[i] = ^uint64(0)
	}
}

// Fold lowers the shingle vector sh by one more input w.
func Fold(sh []uint64, w graph.NodeID) {
	for i := range sh {
		if h := hash64(uint64(uint32(w)), uint64(i)*0x2545f4914f6cdd1d+1); h < sh[i] {
			sh[i] = h
		}
	}
}

// Shingles computes m min-hash shingles for the input list.
func Shingles(inputs []graph.NodeID, m int) []uint64 {
	sh := make([]uint64, m)
	Empty(sh)
	for _, w := range inputs {
		Fold(sh, w)
	}
	return sh
}

// Order returns the indices of ag.Readers sorted lexicographically by their
// m-shingle vectors (ties broken by reader tag, then node id, for
// determinism). This is both the VNM grouping order of the first iteration
// and the IOB insertion order.
func Order(ag *bipartite.AG, m int) []int {
	if m <= 0 {
		m = 2
	}
	sh := make([]uint64, len(ag.Readers)*m)
	for i, r := range ag.Readers {
		row := sh[i*m : (i+1)*m]
		Empty(row)
		for _, w := range r.Inputs {
			Fold(row, w)
		}
	}
	return orderRows(sh, m, func(a, b int) bool {
		ra, rb := &ag.Readers[a], &ag.Readers[b]
		return ra.Tag < rb.Tag || ra.Tag == rb.Tag && ra.Node < rb.Node
	})
}

// OrderRows returns the row indices of the n×m shingle matrix sh (row i is
// sh[i*m:(i+1)*m]) sorted lexicographically, ties broken by row index.
func OrderRows(sh []uint64, m int) []int {
	return orderRows(sh, m, func(a, b int) bool { return a < b })
}

// orderRows sorts row indices by shingle vector, then by tie, which must be
// a strict total order so that the result does not depend on the sort. The
// sort moves each row's first shingle with its index, so most comparisons
// read nothing else; rows whose first shingles are equal compare the rest.
func orderRows(sh []uint64, m int, tie func(a, b int) bool) []int {
	type key struct {
		first uint64
		row   int
	}
	keys := make([]key, len(sh)/m)
	for i := range keys {
		keys[i] = key{sh[i*m], i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.first != b.first {
			return cmp.Compare(a.first, b.first)
		}
		if c := slices.Compare(sh[a.row*m+1:(a.row+1)*m], sh[b.row*m+1:(b.row+1)*m]); c != 0 {
			return c
		}
		if tie(a.row, b.row) {
			return -1
		}
		return 1
	})
	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i] = k.row
	}
	return idx
}

// Chunk splits an ordering into consecutive groups of the given size; the
// last group may be smaller. Overlap, when non-zero, is the number of
// readers shared between consecutive groups — the VNM_D modification
// (§3.2.4) that lets consecutive FP-Tree mining phases see common readers.
func Chunk(order []int, size, overlap int) [][]int {
	if size <= 0 {
		size = 100
	}
	if overlap < 0 {
		overlap = 0
	}
	if overlap >= size {
		overlap = size - 1
	}
	step := size - overlap
	var groups [][]int
	for start := 0; start < len(order); start += step {
		end := start + size
		if end > len(order) {
			end = len(order)
		}
		groups = append(groups, order[start:end])
		if end == len(order) {
			break
		}
	}
	return groups
}
