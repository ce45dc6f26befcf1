package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"bayescrowd/internal/bayesnet"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/parallel"
	"bayescrowd/internal/prob"
)

// minRowsForStructure is the smallest number of complete rows for which
// structure learning is attempted; below it the preprocessing falls back
// to independent empirical marginals.
const minRowsForStructure = 50

// Imputer supplies a distribution for every missing cell of a dataset —
// the pluggable preprocessing model. The Bayesian-network path is built
// in; internal/dae provides the denoising-autoencoder alternative the
// paper mentions in §3.
type Imputer interface {
	Distributions(d *dataset.Dataset) (prob.Dists, error)
}

// Preprocess performs the paper's preprocessing step (§3): obtain a
// Bayesian network over the data attributes (train one on the dataset's
// complete rows unless one is supplied) and derive, for every missing
// cell, the posterior distribution of its value given the object's
// observed cells.
func Preprocess(d *dataset.Dataset, opt Options) (prob.Dists, error) {
	if opt.Imputer != nil {
		dists, err := opt.Imputer.Distributions(d)
		if err != nil {
			return nil, err
		}
		return emitPreprocess(opt, "imputer", dists), nil
	}
	if opt.MarginalsOnly {
		return emitPreprocess(opt, "marginals", marginalDists(d)), nil
	}
	net := opt.Net
	model := "net"
	if net == nil {
		var err error
		net, err = learnNetwork(d, opt)
		if err != nil {
			return nil, err
		}
		if net == nil {
			// Too few complete rows for structure learning.
			return emitPreprocess(opt, "marginals-fallback", marginalDists(d)), nil
		}
		model = "learned"
	}
	if err := checkNetSchema(d, net); err != nil {
		return nil, err
	}
	return emitPreprocess(opt, model, posteriors(d, net, parallel.Workers(opt.Workers))), nil
}

// emitPreprocess traces which preprocessing model produced the
// missing-value distributions and how many there are, passing the
// distributions through for call-site brevity.
func emitPreprocess(opt Options, model string, dists prob.Dists) prob.Dists {
	opt.Trace.Emit(obs.Event{Kind: obs.KindPreprocess, N: len(dists), Note: model})
	return dists
}

// LearnNetwork trains Bayesian-network structure and parameters on the
// complete rows of the (possibly incomplete) dataset — the preprocessing
// step run standalone, so deployments can persist the network
// (bayesnet.WriteJSON) instead of re-learning per query. It returns an
// error when fewer than 50 complete rows are available.
func LearnNetwork(d *dataset.Dataset, opts bayesnet.LearnOptions) (*bayesnet.Network, error) {
	net, err := learnNetwork(d, Options{LearnOpts: opts, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	if net == nil {
		return nil, fmt.Errorf("core: too few complete rows for structure learning (need %d)", minRowsForStructure)
	}
	return net, nil
}

// learnNetwork trains structure and parameters on the complete rows of
// the (incomplete) dataset, returning nil when there are too few. The
// search scores candidate families on opt.Workers goroutines, and its
// wall time goes to opt.Metrics' layer.learn.duration histogram.
func learnNetwork(d *dataset.Dataset, opt Options) (*bayesnet.Network, error) {
	rows := d.CompleteRows()
	if len(rows) < minRowsForStructure {
		return nil, nil
	}
	names, levels := d.Schema()
	lo := opt.LearnOpts
	lo.Workers = opt.Workers
	//lint:ignore determinism timing observability only: the learn-duration histogram reports wall-clock and never feeds a decision
	start := time.Now()
	net, err := bayesnet.LearnStructure(names, levels, rows, lo)
	opt.Metrics.Histogram("layer.learn.duration").Observe(time.Since(start))
	return net, err
}

// checkNetSchema verifies the network's nodes line up with the dataset's
// attributes (same count and levels).
func checkNetSchema(d *dataset.Dataset, net *bayesnet.Network) error {
	if net.NumNodes() != d.NumAttrs() {
		return fmt.Errorf("core: network has %d nodes, dataset has %d attributes", net.NumNodes(), d.NumAttrs())
	}
	for j, a := range d.Attrs {
		if net.Nodes[j].Levels != a.Levels {
			return fmt.Errorf("core: node %q has %d levels, attribute %q has %d",
				net.Nodes[j].Name, net.Nodes[j].Levels, a.Name, a.Levels)
		}
	}
	return nil
}

// posteriors runs exact inference once per distinct (target attribute,
// observed-profile) pair and gives every missing cell its pair's
// posterior: objects with identical evidence share one slice. Pairs with
// the same missing pattern share one compiled elimination plan. Plans
// and posteriors are computed on up to workers goroutines and collected
// by index, so the result is the same at any worker count.
func posteriors(d *dataset.Dataset, net *bayesnet.Network, workers int) prob.Dists {
	type pair struct {
		evidence []int // the first such object's cells, -1 where missing
		target   int
		plan     int
	}
	type cell struct {
		v    ctable.Var
		pair int
	}
	attrs := d.NumAttrs()
	evidence := make([]int, len(d.Objects)*attrs)
	var pairs []pair
	var cells []cell
	var planPairs []int // per plan, the first pair it serves
	pairOf, planOf := map[string]int{}, map[string]int{}
	var key []byte
	for i := range d.Objects {
		ev := evidence[i*attrs : (i+1)*attrs]
		for j, c := range d.Objects[i].Cells {
			ev[j] = -1
			if !c.Missing {
				ev[j] = c.Value
			}
		}
		for j, c := range d.Objects[i].Cells {
			if !c.Missing {
				continue
			}
			// The key is the target, the missing pattern, then the
			// observed values; the prefix up to the values keys the plan.
			key = binary.AppendUvarint(key[:0], uint64(j))
			for _, v := range ev {
				key = append(key, byte(min(v+1, 1)))
			}
			plen := len(key)
			for _, v := range ev {
				if v >= 0 {
					key = binary.AppendUvarint(key, uint64(v))
				}
			}
			k, ok := pairOf[string(key)]
			if !ok {
				plan, ok := planOf[string(key[:plen])]
				if !ok {
					plan = len(planPairs)
					planOf[string(key[:plen])] = plan
					planPairs = append(planPairs, len(pairs))
				}
				k = len(pairs)
				pairOf[string(key)] = k
				pairs = append(pairs, pair{evidence: ev, target: j, plan: plan})
			}
			cells = append(cells, cell{v: ctable.Var{Obj: i, Attr: j}, pair: k})
		}
	}
	plans := make([]*bayesnet.Plan, len(planPairs))
	parallel.For(workers, len(plans), func(_, k int) {
		p := pairs[planPairs[k]]
		plans[k] = net.Compile(p.target, p.evidence)
	})
	post := make([][]float64, len(pairs))
	parallel.For(workers, len(pairs), func(_, k int) {
		post[k] = plans[pairs[k].plan].Posterior(pairs[k].evidence)
	})
	dists := make(prob.Dists, len(cells))
	for _, c := range cells {
		dists[c.v] = post[c.pair]
	}
	return dists
}

// marginalDists models every missing cell by its attribute's empirical
// marginal over the observed values, with add-one smoothing so no code
// has zero prior probability (the paper assumes every missing value can
// take any domain value).
func marginalDists(d *dataset.Dataset) prob.Dists {
	counts := make([][]float64, d.NumAttrs())
	for j, a := range d.Attrs {
		counts[j] = make([]float64, a.Levels)
	}
	for i := range d.Objects {
		for j, c := range d.Objects[i].Cells {
			if !c.Missing {
				counts[j][c.Value]++
			}
		}
	}
	marginals := make([][]float64, d.NumAttrs())
	for j := range counts {
		total := 0.0
		for _, c := range counts[j] {
			total += c + 1
		}
		m := make([]float64, len(counts[j]))
		for v, c := range counts[j] {
			m[v] = (c + 1) / total
		}
		marginals[j] = m
	}
	dists := prob.Dists{}
	for i := range d.Objects {
		for j, c := range d.Objects[i].Cells {
			if c.Missing {
				dists[ctable.Var{Obj: i, Attr: j}] = marginals[j]
			}
		}
	}
	return dists
}
