package bayesnet

import (
	"fmt"
	"slices"
)

// Exact inference runs in two stages. Compile decides, from which nodes
// are observed alone, the elimination schedule: which factors each step
// multiplies, which variable it sums out, and the stride of every
// variable in every factor it reads. Plan.Posterior then walks those
// strides for one row of evidence values: no entry index is ever decoded
// by division and modulo, and an observed variable is fixed by an offset
// into its CPT factor instead of a restricted copy.
//
// The arithmetic is that of textbook variable elimination over explicit
// factors, performed in a fixed order: every step forms each product
// entry as a left-to-right product of its factors' entries (in factor
// list order) and adds the entries of a summed-out variable into their
// output cell in increasing value order, starting from zero.
// testdata/posterior_corpus.txt pins the resulting bits. Products are
// rounded explicitly (float64(a*b)) so that no platform fuses a product
// into the following sum.

// factor is node i's CPT laid out for variable elimination: a function
// over vars (the node and its parents, ascending) whose vals are indexed
// in mixed radix with the last variable varying fastest; stride[k] is
// the step of vars[k].
type factor struct {
	vars   []int
	stride []int
	vals   []float64
}

// cptFactor lays node i's CPT out as a factor.
func (n *Network) cptFactor(i int) factor {
	node := &n.Nodes[i]
	vars := append([]int{i}, node.Parents...)
	slices.Sort(vars)
	f := factor{vars: vars, stride: make([]int, len(vars)), vals: make([]float64, len(node.CPT))}
	step := 1
	for k := len(vars) - 1; k >= 0; k-- {
		f.stride[k] = step
		step *= n.Nodes[vars[k]].Levels
	}
	strideOf := func(v int) int { return f.stride[slices.Index(vars, v)] }
	// Walk the CPT in its own order (first parent most significant, the
	// node's value fastest), tracking the factor offset of the current
	// parent configuration.
	self := strideOf(i)
	parentStride := make([]int, len(node.Parents))
	for k, p := range node.Parents {
		parentStride[k] = strideOf(p)
	}
	parentVal := make([]int, len(node.Parents))
	at := 0
	for cfg := 0; cfg*node.Levels < len(node.CPT); cfg++ {
		for v := 0; v < node.Levels; v++ {
			f.vals[at+v*self] = node.CPT[cfg*node.Levels+v]
		}
		for k := len(node.Parents) - 1; k >= 0; k-- {
			parentVal[k]++
			at += parentStride[k]
			if parentVal[k] < n.Nodes[node.Parents[k]].Levels {
				break
			}
			at -= parentVal[k] * parentStride[k]
			parentVal[k] = 0
		}
	}
	return f
}

// Plan is a compiled variable-elimination schedule: the posterior of one
// target node given evidence on a fixed set of observed nodes. It depends
// on which nodes are observed, not on their values, so one plan serves
// every row with the same missing pattern. A Plan is immutable and safe
// for concurrent use.
type Plan struct {
	net    *Network
	target int
	steps  []step // the last one multiplies the remaining factors over the target
	arena  int    // floats of intermediate factors the steps write
	maxIn  int    // most operands of any step
	maxVar int    // most iteration variables of any step
}

// step multiplies its operands entry by entry and sums the product over
// its last iteration variable. The iteration variables are the output's,
// ascending, then the summed one; the final step sums over a dummy
// variable of one level.
type step struct {
	in     []operand
	card   []int // levels of each iteration variable
	stride []int // stride[k*len(in)+j]: step of iteration variable k in operand j, 0 when absent
	out    int   // arena offset of the output
	size   int   // output entries
}

// operand is one factor a step reads: a node's CPT factor, read at the
// offset that the evidence on its observed variables fixes, or an earlier
// step's output in the arena.
type operand struct {
	cpt   int   // node whose CPT factor is read; -1 reads the arena
	base  int   // arena offset of the earlier output, when cpt < 0
	fixed []int // for cpt >= 0: pairs of (observed node, its stride)
}

// pending is a factor of the elimination in progress: its variables
// (ascending), their strides, and where its entries live.
type pending struct {
	vars   []int
	stride []int
	op     operand
}

// Compile plans the posterior of target given the nodes observed in
// evidence: evidence[i] is node i's value, or -1 when node i is hidden.
// Only which nodes are observed matters; the values are read later by
// Plan.Posterior. Hidden nodes are eliminated greedily, each time the
// one whose elimination forms the smallest product factor, ties to the
// smaller node index.
func (n *Network) Compile(target int, evidence []int) *Plan {
	if target < 0 || target >= len(n.Nodes) {
		panic(fmt.Sprintf("bayesnet: Posterior target %d outside [0,%d)", target, len(n.Nodes)))
	}
	if len(evidence) != len(n.Nodes) {
		panic(fmt.Sprintf("bayesnet: evidence has %d values, want %d", len(evidence), len(n.Nodes)))
	}
	if evidence[target] >= 0 {
		panic(fmt.Sprintf("bayesnet: Posterior target %d is in the evidence", target))
	}
	p := &Plan{net: n, target: target}
	factors := make([]pending, len(n.Nodes))
	var hidden []int
	for i := range n.Nodes {
		f := &n.factors[i]
		pf := pending{op: operand{cpt: i}}
		for k, v := range f.vars {
			if evidence[v] >= 0 {
				pf.op.fixed = append(pf.op.fixed, v, f.stride[k])
			} else {
				pf.vars = append(pf.vars, v)
				pf.stride = append(pf.stride, f.stride[k])
			}
		}
		factors[i] = pf
		if i != target && evidence[i] < 0 {
			hidden = append(hidden, i)
		}
	}
	seen := make([]int, len(n.Nodes)) // seen[u] == mark: u counted for the current candidate
	mark := 0
	for len(hidden) > 0 {
		best, bestCost := 0, 0
		for h, v := range hidden {
			mark++
			cost := 1
			for _, f := range factors {
				if !slices.Contains(f.vars, v) {
					continue
				}
				for _, u := range f.vars {
					if seen[u] != mark {
						seen[u] = mark
						cost *= n.Nodes[u].Levels
					}
				}
			}
			if h == 0 || cost < bestCost {
				best, bestCost = h, cost
			}
		}
		factors = p.eliminate(factors, hidden[best])
		hidden = slices.Delete(hidden, best, best+1)
	}
	// Every factor left is over the target or over nothing.
	p.addStep(factors, []int{target}, -1)
	return p
}

// eliminate replaces the factors mentioning v by one step that multiplies
// them in list order and sums v out; its output joins the end of the list.
func (p *Plan) eliminate(factors []pending, v int) []pending {
	var with []pending
	var union []int
	rest := factors[:0] // filtered in place: it never overtakes the reader
	for _, f := range factors {
		if slices.Contains(f.vars, v) {
			with = append(with, f)
			for _, u := range f.vars {
				if u != v && !slices.Contains(union, u) {
					union = append(union, u)
				}
			}
		} else {
			rest = append(rest, f)
		}
	}
	slices.Sort(union)
	s := p.addStep(with, union, v)
	out := pending{vars: union, stride: make([]int, len(union)), op: operand{cpt: -1, base: s.out}}
	step := 1
	for k := len(union) - 1; k >= 0; k-- {
		out.stride[k] = step
		step *= p.net.Nodes[union[k]].Levels
	}
	return append(rest, out)
}

// addStep appends the step that multiplies factors over the iteration
// variables vars (ascending) and then summed, placing its output in the
// arena. The final step passes summed -1, a dummy variable of one level,
// and writes the distribution instead.
func (p *Plan) addStep(factors []pending, vars []int, summed int) *step {
	iter := append(slices.Clip(vars), summed)
	s := step{
		in:     make([]operand, len(factors)),
		card:   make([]int, len(iter)),
		stride: make([]int, len(iter)*len(factors)),
		size:   1,
	}
	for k, v := range iter {
		s.card[k] = 1
		if v >= 0 {
			s.card[k] = p.net.Nodes[v].Levels
		}
	}
	for _, c := range s.card[:len(vars)] {
		s.size *= c
	}
	for j, f := range factors {
		s.in[j] = f.op
		for k, v := range iter {
			if at := slices.Index(f.vars, v); at >= 0 {
				s.stride[k*len(factors)+j] = f.stride[at]
			}
		}
	}
	if summed >= 0 {
		s.out = p.arena
		p.arena += s.size
	}
	p.maxIn = max(p.maxIn, len(factors))
	p.maxVar = max(p.maxVar, len(s.card))
	p.steps = append(p.steps, s)
	return &p.steps[len(p.steps)-1]
}

// Posterior returns P(target | evidence) as a distribution over the
// target's levels. evidence must observe exactly the nodes the plan was
// compiled for, each with a value inside its domain. If the evidence has
// zero probability under the network, the uniform distribution is
// returned (no information).
func (p *Plan) Posterior(evidence []int) []float64 {
	arena := make([]float64, p.arena)
	// Small plans keep their scratch on the stack.
	var srcBuf [16][]float64
	var intBuf [48]int
	src, ints := srcBuf[:], intBuf[:]
	if p.maxIn > len(srcBuf) || 2*p.maxIn+p.maxVar > len(intBuf) {
		src, ints = make([][]float64, p.maxIn), make([]int, 2*p.maxIn+p.maxVar)
	}
	dist := make([]float64, p.net.Nodes[p.target].Levels)
	for si := range p.steps {
		s := &p.steps[si]
		at, pos, cnt := ints[:len(s.in)], ints[p.maxIn:p.maxIn+len(s.in)], ints[2*p.maxIn:2*p.maxIn+len(s.card)]
		for j, op := range s.in {
			if op.cpt < 0 {
				src[j], at[j] = arena, op.base
				continue
			}
			src[j], at[j] = p.net.factors[op.cpt].vals, 0
			for k := 0; k < len(op.fixed); k += 2 {
				at[j] += evidence[op.fixed[k]] * op.fixed[k+1]
			}
		}
		out := dist
		if si < len(p.steps)-1 {
			out = arena[s.out : s.out+s.size]
		}
		s.run(out, src[:len(s.in)], at, pos, cnt)
	}
	sum := 0.0
	for _, q := range dist {
		sum += q
	}
	if sum <= 0 {
		for v := range dist {
			dist[v] = 1 / float64(len(dist))
		}
		return dist
	}
	for v := range dist {
		dist[v] /= sum
	}
	return dist
}

// run writes every output cell in flat order: the sum, over the summed
// variable's values in increasing order, of the operands' product. at
// holds each operand's offset of the current cell; pos and cnt are
// scratch.
func (s *step) run(out []float64, src [][]float64, at, pos, cnt []int) {
	n, last := len(src), len(s.card)-1
	inner, sum := s.card[last], s.stride[last*n:]
	clear(cnt)
	for o := range out {
		copy(pos, at)
		acc := 0.0
		for x := 0; x < inner; x++ {
			q := src[0][pos[0]]
			for j := 1; j < n; j++ {
				q = float64(q * src[j][pos[j]])
			}
			acc += q
			for j := range pos {
				pos[j] += sum[j]
			}
		}
		out[o] = acc
		for k := last - 1; k >= 0; k-- {
			stride := s.stride[k*n : (k+1)*n]
			cnt[k]++
			if cnt[k] < s.card[k] {
				for j := range at {
					at[j] += stride[j]
				}
				break
			}
			for j := range at {
				at[j] -= (s.card[k] - 1) * stride[j]
			}
			cnt[k] = 0
		}
	}
}

// Posterior returns P(target | evidence) as a distribution over the
// target's levels, computed exactly by variable elimination. evidence maps
// node index to observed value; the target must not be in the evidence.
// If the evidence has zero probability under the network, the uniform
// distribution is returned (no information).
func (n *Network) Posterior(target int, evidence map[int]int) []float64 {
	if target < 0 || target >= len(n.Nodes) {
		panic(fmt.Sprintf("bayesnet: Posterior target %d outside [0,%d)", target, len(n.Nodes)))
	}
	ev := make([]int, len(n.Nodes))
	for i := range ev {
		ev[i] = -1
	}
	for v, val := range evidence {
		if v < 0 || v >= len(n.Nodes) || val < 0 || val >= n.Nodes[v].Levels {
			panic(fmt.Sprintf("bayesnet: evidence %d=%d outside the network", v, val))
		}
		ev[v] = val
	}
	return n.Compile(target, ev).Posterior(ev)
}
