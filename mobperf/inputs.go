package main

import (
	"fmt"
	"sort"

	"mobidx/internal/dual"
	"mobidx/internal/workload"
)

// queriesPerInstant is the paper's query count per time instant (§5); the
// update-mixed reader and the end-of-run checks draw from these.
const queriesPerInstant = 200

// inputs is everything a run sends to the cluster. It is generated from the
// seed before any timing starts, so the same seed gives the same inputs.
type inputs struct {
	terrain  dual.Terrain
	initial  []dual.Motion      // the bulk-loaded population, indexed by OID
	reads    []dual.MORQuery    // the read phase's queries, at t = 0
	standing []dual.MORQuery    // standing queries; window = T2 - T1
	instants []instant          // the §5 update stream, one entry per time instant
	expected map[int][]dual.OID // brute-force answers of the sampled reads
}

// instant is one time instant of the §5 scenario.
type instant struct {
	t       float64
	pairs   []pair
	queries []dual.MORQuery // small-mix queries issued at t
}

// pairs counts the update pairs of the whole stream.
func (in *inputs) pairs() int {
	n := 0
	for _, inst := range in.instants {
		n += len(inst.pairs)
	}
	return n
}

// pair is one object update: the delete of its old motion and the insert
// of its new one, applied as one Cluster.Apply.
type pair struct{ del, ins dual.Motion }

// genInputs runs the §5 simulator from seed: n objects, a read list of
// nReads queries from mix, nStanding small-mix standing queries, and
// instants until at least maxPairs update pairs exist. The first nOracle
// reads get brute-force answers.
func genInputs(seed int64, n int, mix workload.QueryMix, nReads, nStanding, maxPairs, nOracle int) (*inputs, error) {
	p := workload.DefaultParams(n)
	p.Seed = seed
	sim, err := workload.NewSimulator(p)
	if err != nil {
		return nil, err
	}
	if err := sim.Bootstrap(func(workload.Op) error { return nil }); err != nil {
		return nil, err
	}
	in := &inputs{
		terrain:  p.Terrain,
		initial:  append([]dual.Motion(nil), sim.Motions()...),
		expected: make(map[int][]dual.OID),
	}
	mix.PerSlot = nReads
	in.reads = stratify(sim.Queries(mix))
	small := workload.SmallQueries()
	small.PerSlot = nStanding
	in.standing = sim.Queries(small)
	for i := 0; i < nOracle && i < len(in.reads); i++ {
		in.expected[i] = bruteForce(in.initial, in.reads[i])
	}
	small.PerSlot = queriesPerInstant
	for total := 0; total < maxPairs; {
		var ops []workload.Op
		if err := sim.Tick(func(op workload.Op) error {
			ops = append(ops, op)
			return nil
		}); err != nil {
			return nil, err
		}
		pairs, err := pairOps(ops)
		if err != nil {
			return nil, fmt.Errorf("instant %v: %w", sim.Now(), err)
		}
		in.instants = append(in.instants, instant{t: sim.Now(), pairs: pairs, queries: sim.Queries(small)})
		total += len(pairs)
	}
	return in, nil
}

// stratify orders queries so that every prefix of the list spreads evenly
// over their reach, the extent plus the distance an average object covers
// in the window, which sets a query's cost. A timed run executes only a
// prefix of the read list, so in random order the cost of the work a run
// samples would vary from seed to seed; here it does not. The queries
// themselves are unchanged.
func stratify(qs []dual.MORQuery) []dual.MORQuery {
	reach := func(q dual.MORQuery) float64 { return q.Y2 - q.Y1 + meanSpeed*(q.T2-q.T1) }
	sorted := append([]dual.MORQuery(nil), qs...)
	sort.SliceStable(sorted, func(i, j int) bool { return reach(sorted[i]) < reach(sorted[j]) })
	bits := 0
	for 1<<bits < len(sorted) {
		bits++
	}
	out := make([]dual.MORQuery, 0, len(sorted))
	for i := 0; i < 1<<bits; i++ {
		// Visiting the sorted list in bit-reversed index order takes every
		// stratum once before any is taken twice.
		if r := reverseBits(i, bits); r < len(sorted) {
			out = append(out, sorted[r])
		}
	}
	return out
}

func reverseBits(i, bits int) int {
	r := 0
	for b := 0; b < bits; b++ {
		r = r<<1 | (i>>b)&1
	}
	return r
}

// meanSpeed is the mean |v| of the §5 terrain's uniform speeds.
const meanSpeed = (0.16 + 1.66) / 2

// pairOps groups one instant's simulator ops into update pairs, in the
// simulator's order. The simulator reports every update as a delete of the
// object's old motion followed by an insert of its new one.
func pairOps(ops []workload.Op) ([]pair, error) {
	if len(ops)%2 != 0 {
		return nil, fmt.Errorf("odd op count %d", len(ops))
	}
	out := make([]pair, 0, len(ops)/2)
	for i := 0; i < len(ops); i += 2 {
		d, ins := ops[i], ops[i+1]
		if d.Insert || !ins.Insert || d.Motion.OID != ins.Motion.OID {
			return nil, fmt.Errorf("ops %d-%d are not a delete+insert of one object", i, i+1)
		}
		out = append(out, pair{del: d.Motion, ins: ins.Motion})
	}
	return out, nil
}

// bruteForce answers q over ms (indexed by OID), sorted ascending — the
// oracle every checked answer is compared with.
func bruteForce(ms []dual.Motion, q dual.MORQuery) []dual.OID {
	var out []dual.OID
	for _, m := range ms {
		if m.Matches(q) {
			out = append(out, m.OID)
		}
	}
	return out
}

func sameOIDs(a, b []dual.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
