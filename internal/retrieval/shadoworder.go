// Cluster order of a base shadow (DESIGN §16): a permutation of the base
// rows that puts rows with similar codes into contiguous blocks of at
// most blockRows, so a block's box (vafile.Box) is tight enough for the
// walk to skip it, and the tree of the k-d splits that cut the blocks,
// whose nodes' boxes let the walk skip whole runs of blocks. The order
// is derived from the codes alone — fixed strided samples, no random
// draws, and parallel steps that write disjoint slots — so every build
// from the same codes gives the same order and tree, and nothing about
// them is persisted.
//
// (This file extends package retrieval; the package comment lives in
// retrieval.go.)

package retrieval

import (
	"qse/internal/par"
)

const (
	// blockRows caps a block of the cluster order: the walk's unit of
	// skipping, and the k-d split's alignment.
	blockRows = 128
	// kmeansK centres are fitted at each of the two k-means levels, from
	// at most kmeansTopSample (first level) or kmeansSubSample (second
	// level, per cluster) strided rows, over kmeansIters Lloyd steps.
	kmeansK         = 16
	kmeansTopSample = 8192
	kmeansSubSample = 2048
	kmeansIters     = 8
	// kdSample caps the rows the k-d split reads to pick a node's widest
	// dimension.
	kdSample = 1024
)

// treeNode is one node of the cluster tree: it covers blocks [lo, hi),
// and a node of two or more blocks has two children, the first covering
// the node's first blocks and the second the rest. A node of one block
// is that block.
type treeNode struct {
	lo, hi int32
	kids   [2]int32
}

// blockTree collects the blocks (their first cluster positions) and the
// nodes that kdSplit emits.
type blockTree struct {
	starts []int32
	nodes  []treeNode
}

// clusterOrder returns the cluster order of a rows x dims code block and
// its tree: order[i] is the row at cluster position i, and block b
// covers cluster positions [starts[b], starts[b+1]). Two levels of
// k-means in code space (kmeansK centres each) give up to kmeansK² leaf
// clusters; a k-d split cuts each leaf into blocks of at most blockRows,
// all full but the leaf's last, and its nodes are the tree's: roots
// holds each non-empty leaf's node, and every node's children follow it
// in nodes. Rows keep their relative order wherever a step has no reason
// to move them.
func clusterOrder(codes []uint8, rows, dims int) (order, starts []int32, nodes []treeNode, roots []int32) {
	order = make([]int32, rows)
	for i := range order {
		order[i] = int32(i)
	}
	top := splitByCentres(codes, dims, order, kmeansTopSample, true)
	// Each top cluster owns a disjoint range of order, so the clusters
	// refine in parallel, each into its own tree numbered from zero; the
	// trees are concatenated in cluster order.
	trees := make([]blockTree, len(top)-1)
	leaves := make([][]int32, len(top)-1)
	par.For(len(top)-1, 2, func(lo, hi int) {
		var scratch []int32
		for c := lo; c < hi; c++ {
			seg := order[top[c]:top[c+1]]
			sub := splitByCentres(codes, dims, seg, kmeansSubSample, false)
			for l := 0; l+1 < len(sub); l++ {
				leaf := seg[sub[l]:sub[l+1]]
				if len(leaf) == 0 {
					continue
				}
				if cap(scratch) < len(leaf) {
					scratch = make([]int32, len(leaf))
				}
				leaves[c] = append(leaves[c], kdSplit(codes, dims, leaf, scratch[:len(leaf)], int32(top[c]+sub[l]), &trees[c]))
			}
		}
	})
	starts = make([]int32, 0, rows/blockRows+kmeansK*kmeansK+1)
	nodes = make([]treeNode, 0, 2*cap(starts))
	for c, t := range trees {
		b, n := int32(len(starts)), int32(len(nodes))
		starts = append(starts, t.starts...)
		for _, nd := range t.nodes {
			nd.lo += b
			nd.hi += b
			if nd.hi-nd.lo > 1 {
				nd.kids[0] += n
				nd.kids[1] += n
			}
			nodes = append(nodes, nd)
		}
		for _, r := range leaves[c] {
			roots = append(roots, r+n)
		}
	}
	return order, append(starts, int32(rows)), nodes, roots
}

// splitByCentres fits k-means centres to at most sample strided rows of
// idx, assigns every row of idx to its nearest centre, and reorders idx
// in place by centre, stably. It returns the cluster bounds: cluster c is
// idx[bounds[c]:bounds[c+1]], empty clusters included. parallel spreads
// the assignment over the worker pool.
func splitByCentres(codes []uint8, dims int, idx []int32, sample int, parallel bool) []int {
	n := len(idx)
	k := min(kmeansK, n)
	centres := fitCentres(codes, dims, idx, min(sample, n), k)
	label := make([]uint8, n)
	assign := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			label[i] = uint8(nearestCentre(codes, dims, int(idx[i]), centres))
		}
	}
	if parallel {
		par.For(n, minParallelScan, assign)
	} else {
		assign(0, n)
	}
	bounds := make([]int, k+1)
	for _, l := range label {
		bounds[l+1]++
	}
	for c := 1; c <= k; c++ {
		bounds[c] += bounds[c-1]
	}
	sorted := make([]int32, n)
	next := append([]int(nil), bounds[:k]...)
	for i, l := range label {
		sorted[next[l]] = idx[i]
		next[l]++
	}
	copy(idx, sorted)
	return bounds
}

// fitCentres runs kmeansIters Lloyd steps over s strided rows of idx
// from k strided starting centres, and returns the k centres (k x dims,
// each a rounded mean of codes). A centre that loses all its rows keeps
// its place.
func fitCentres(codes []uint8, dims int, idx []int32, s, k int) []int32 {
	n := len(idx)
	pick := make([]int, s)
	for i := range pick {
		pick[i] = int(idx[i*n/s])
	}
	centres := make([]int32, k*dims)
	for c := 0; c < k; c++ {
		r := pick[c*s/k]
		for d, v := range codes[r*dims : (r+1)*dims] {
			centres[c*dims+d] = int32(v)
		}
	}
	sums := make([]int64, k*dims)
	counts := make([]int64, k)
	for it := 0; it < kmeansIters; it++ {
		clear(sums)
		clear(counts)
		for _, r := range pick {
			c := nearestCentre(codes, dims, r, centres)
			counts[c]++
			sum := sums[c*dims : (c+1)*dims]
			for d, v := range codes[r*dims : (r+1)*dims] {
				sum[d] += int64(v)
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			for d := 0; d < dims; d++ {
				centres[c*dims+d] = int32((2*sums[c*dims+d] + counts[c]) / (2 * counts[c]))
			}
		}
	}
	return centres
}

// nearestCentre returns the centre nearest row r by squared L2 over its
// codes, the lowest index on a tie. A centre is dropped as soon as its
// partial sum reaches the best so far, checked every 16 dimensions.
func nearestCentre(codes []uint8, dims, r int, centres []int32) int {
	row := codes[r*dims : (r+1)*dims]
	best, bestD := 0, int32(1<<31-1)
	for c := 0; c*dims < len(centres); c++ {
		ctr := centres[c*dims : (c+1)*dims]
		var s int32
		for d := 0; d < dims && s < bestD; d += 16 {
			hi := min(d+16, dims)
			cc := ctr[d:hi]
			for j, v := range row[d:hi] {
				x := int32(v) - cc[j]
				s += x * x
			}
		}
		if s < bestD {
			best, bestD = c, s
		}
	}
	return best
}

// kdSplit cuts the rows of idx (at least one) into blocks of at most
// blockRows, appends the cluster position of each block's first row
// (idx[0] sits at position first) to tree.starts and each node of the
// split to tree.nodes, a node before its children, and returns the node
// that covers idx. A node holding more rows is split on the dimension
// whose codes vary most over at most kdSample strided rows: the
// blockRows-aligned half of its rows nearest n/2 with the smallest codes
// in that dimension goes first, found with a 256-bin histogram, and each
// side keeps its rows' relative order. scratch holds len(idx) slots.
func kdSplit(codes []uint8, dims int, idx, scratch []int32, first int32, tree *blockTree) int32 {
	n := len(idx)
	node := int32(len(tree.nodes))
	tree.nodes = append(tree.nodes, treeNode{lo: int32(len(tree.starts))})
	if n <= blockRows {
		tree.starts = append(tree.starts, first)
		tree.nodes[node].hi = tree.nodes[node].lo + 1
		return node
	}
	dim := widestDim(codes, dims, idx)
	var hist [256]int
	for _, r := range idx {
		hist[codes[int(r)*dims+dim]]++
	}
	m := max(blockRows, (n/2+blockRows/2)/blockRows*blockRows)
	// Rows below code t go left, then rows at t until m are placed.
	t, below := 0, 0
	for below+hist[t] < m {
		below += hist[t]
		t++
	}
	atT := m - below
	l, r := 0, m
	for _, row := range idx {
		c := int(codes[int(row)*dims+dim])
		if c < t || (c == t && atT > 0) {
			if c == t {
				atT--
			}
			scratch[l] = row
			l++
		} else {
			scratch[r] = row
			r++
		}
	}
	copy(idx, scratch)
	left := kdSplit(codes, dims, idx[:m], scratch[:m], first, tree)
	right := kdSplit(codes, dims, idx[m:], scratch[m:], first+int32(m), tree)
	tree.nodes[node].hi = int32(len(tree.starts))
	tree.nodes[node].kids = [2]int32{left, right}
	return node
}

// widestDim returns the dimension whose codes have the largest variance
// over at most kdSample strided rows of idx, the lowest on a tie.
func widestDim(codes []uint8, dims int, idx []int32) int {
	n := len(idx)
	s := min(n, kdSample)
	sum := make([]int64, dims)
	sq := make([]int64, dims)
	for i := 0; i < s; i++ {
		r := int(idx[i*n/s])
		for d, v := range codes[r*dims : (r+1)*dims] {
			sum[d] += int64(v)
			sq[d] += int64(v) * int64(v)
		}
	}
	best, bestVar := 0, int64(-1)
	for d := 0; d < dims; d++ {
		// s² times the variance: the sample size is the same for every
		// dimension, so it orders them alike.
		if v := int64(s)*sq[d] - sum[d]*sum[d]; v > bestVar {
			best, bestVar = d, v
		}
	}
	return best
}
