package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/dist"
	"repro/internal/server"
	"repro/internal/stream"
)

// Everything the benchmark sends is generated here from the -seed, before
// any request leaves: sketchd only ever receives the generated inputs, and
// the same seed always yields byte-identical batches, queries and
// schedules. The generators also account the exact truth the correctness
// checks compare the server's estimates against.

const (
	batchSize = 512     // updates per ingest request
	universe  = 1 << 20 // item ids are Zipf ranks in [1, universe]
)

// subSeed derives an independent stream seed for one generator role, so
// adding a generator never shifts another's output.
func subSeed(seed int64, role uint64) int64 {
	return int64(dist.SplitMix64(uint64(seed)*0x9e3779b97f4a7c15 + role))
}

const (
	roleBatches uint64 = iota + 1
	roleQueries
	roleSchedule
	roleGame
)

// Batch is one pre-generated ingest request: batchSize unit insertions
// into one tenant.
type Batch struct {
	Tenant  int
	Updates []client.Update
}

// genBatches draws n batches. The tenant of each batch is Zipf(tenantSkew)
// over the tenant ranks (round-robin when tenantSkew is 0, so every window
// of a phase carries the same tenant mix) and items are
// Zipf(itemSkew) over the universe.
func genBatches(seed int64, n, tenants int, tenantSkew, itemSkew float64) []Batch {
	rng := rand.New(rand.NewSource(subSeed(seed, roleBatches)))
	items := rand.NewZipf(rng, itemSkew, 1, universe-1)
	var pick func() int
	if tenantSkew > 1 && tenants > 1 {
		z := rand.NewZipf(rng, tenantSkew, 1, uint64(tenants-1))
		pick = func() int { return int(z.Uint64()) }
	} else {
		next := -1
		pick = func() int { next++; return next % tenants }
	}
	out := make([]Batch, n)
	flat := make([]client.Update, n*batchSize)
	for i := range out {
		us := flat[i*batchSize : (i+1)*batchSize : (i+1)*batchSize]
		for j := range us {
			us[j] = client.Update{Item: items.Uint64() + 1, Delta: 1}
		}
		out[i] = Batch{Tenant: pick(), Updates: us}
	}
	return out
}

// Query is one pre-generated /v2/query call against one tenant.
type Query struct {
	Tenant  int
	Queries []client.Query
}

// Mix is a read mix in percent; the remainder after Point and TopK is
// plain estimate queries.
type Mix struct{ Point, TopK int }

const (
	pointItems = 8  // coordinates per point query batch
	topK       = 10 // answer-set size of a top-k query
)

// genQueries draws n query calls. Estimate calls go to any tenant, point
// and top-k calls only to tenants that answer them (pointTenants); a mix
// asking for point queries with no such tenant falls back to estimates.
func genQueries(seed int64, n, tenants int, pointTenants []int, mix Mix) []Query {
	rng := rand.New(rand.NewSource(subSeed(seed, roleQueries)))
	items := rand.NewZipf(rng, 1.2, 1, universe-1)
	out := make([]Query, n)
	for i := range out {
		roll := rng.Intn(100)
		switch {
		case roll < mix.Point && len(pointTenants) > 0:
			qs := make([]client.Query, pointItems)
			for j := range qs {
				qs[j] = client.Query{Kind: server.QueryPoint, Item: server.U64(items.Uint64() + 1)}
			}
			out[i] = Query{Tenant: pointTenants[rng.Intn(len(pointTenants))], Queries: qs}
		case roll < mix.Point+mix.TopK && len(pointTenants) > 0:
			out[i] = Query{
				Tenant:  pointTenants[rng.Intn(len(pointTenants))],
				Queries: []client.Query{{Kind: server.QueryTopK, K: topK}},
			}
		default:
			out[i] = Query{
				Tenant:  rng.Intn(tenants),
				Queries: []client.Query{{Kind: server.QueryEstimate}},
			}
		}
	}
	return out
}

// generate draws the workload's batches and queries from the seed — the
// same ones for the process run and for the ladder.
func generate(w *workload, seed int64) ([]Batch, []Query) {
	var pointTenants []int
	for i, t := range w.Tenants {
		if t.Spec.Sketch == "countsketch" {
			pointTenants = append(pointTenants, i)
		}
	}
	return genBatches(seed, poolBatches, len(w.Tenants), w.TenantSkew, 1.2),
		genQueries(seed, poolQueries, len(w.Tenants), pointTenants, w.Reads)
}

// Op is one request of an open-loop schedule: due at Due from the phase
// start, the Index-th write or read of the phase.
type Op struct {
	Due   time.Duration
	Read  bool
	Index int
}

// genArrivals draws rate·dur Poisson arrivals and rescales them to end
// exactly at dur, so every run offers the same number of requests over
// the same time whatever the seed.
func genArrivals(rng *rand.Rand, rate int, dur time.Duration) []time.Duration {
	n := int(float64(rate) * dur.Seconds())
	if n <= 0 {
		return nil
	}
	at := make([]float64, n)
	t := 0.0
	for i := range at {
		t += rng.ExpFloat64()
		at[i] = t
	}
	t += rng.ExpFloat64() // the gap after the last arrival closes the phase
	out := make([]time.Duration, n)
	for i, a := range at {
		out[i] = time.Duration(a / t * float64(dur))
	}
	return out
}

// genSchedule merges an independent write stream and read stream into one
// due-time ordered open-loop schedule.
func genSchedule(seed int64, writeRate, readRate int, dur time.Duration) []Op {
	rng := rand.New(rand.NewSource(subSeed(seed, roleSchedule)))
	writes := genArrivals(rng, writeRate, dur)
	reads := genArrivals(rng, readRate, dur)
	ops := make([]Op, 0, len(writes)+len(reads))
	for i, d := range writes {
		ops = append(ops, Op{Due: d, Index: i})
	}
	for i, d := range reads {
		ops = append(ops, Op{Due: d, Read: true, Index: i})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
	return ops
}

// Truth is the exact frequency vector of every tenant, built from how
// often each pre-generated batch was acknowledged.
type Truth struct {
	freq []*stream.Freq
}

func newTruth(tenants int) *Truth {
	t := &Truth{freq: make([]*stream.Freq, tenants)}
	for i := range t.freq {
		t.freq[i] = stream.NewFreq()
	}
	return t
}

// AddBatches accounts batch i as acknowledged sent[i] times.
func (t *Truth) AddBatches(pool []Batch, sent []uint32) {
	for i, times := range sent {
		if times == 0 {
			continue
		}
		f := t.freq[pool[i].Tenant]
		for _, u := range pool[i].Updates {
			f.Apply(stream.Update{Item: u.Item, Delta: u.Delta * int64(times)})
		}
	}
}

// within reports whether est is inside the relative ε envelope of truth
// (|est| ≤ ε when the truth is zero), the acceptance rule of game.RelCheck.
func within(est, truth, eps float64) bool {
	if truth == 0 {
		return math.Abs(est) <= eps
	}
	return math.Abs(est-truth) <= eps*math.Abs(truth)
}
