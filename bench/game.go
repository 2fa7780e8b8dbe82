package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/client"
	"repro/internal/fp"
	"repro/internal/game"
	"repro/internal/stream"
)

// timedTarget is the HTTP game target with a stopwatch and an exact L2
// tracker around it. game.RunTarget would recompute the truth from the
// whole frequency vector every round, an O(F0) walk that at tens of
// thousands of rounds costs the generator more than the requests do; the
// running Σf² here is exact on integer counts and O(1) per update.
type timedTarget struct {
	inner  game.Target
	start  time.Time
	st     *phaseStats
	counts map[uint64]int64
	f2     float64
	posted time.Duration // when this round's POST left
	rounds int
	atRSS  func() // called once, when round gameRSSRounds is answered
}

func (t *timedTarget) Update(item uint64, delta int64) error {
	t.posted = time.Since(t.start)
	t.st.attempted++
	if err := t.inner.Update(item, delta); err != nil {
		t.st.failed++
		return err
	}
	end := time.Since(t.start)
	if end < t.st.dur {
		t.st.write.Record(end, int64(end-t.posted), 1)
	}
	c := t.counts[item]
	t.f2 += float64(delta * (2*c + delta))
	t.counts[item] = c + delta
	return nil
}

func (t *timedTarget) Estimate() (float64, error) {
	began := time.Since(t.start)
	t.st.attempted++
	est, err := t.inner.Estimate()
	if err != nil {
		t.st.failed++
		return 0, err
	}
	end := time.Since(t.start)
	if end < t.st.dur {
		t.st.read.Record(end, int64(end-began), 1)
		t.st.round.Record(end, int64(end-t.posted), 1)
	}
	if t.rounds++; t.rounds == gameRSSRounds {
		t.atRSS()
	}
	return est, nil
}

// untilDeadline plays adv until the phase is over: the game is a closed
// loop by nature, so it is measured like one — for a fixed time.
type untilDeadline struct {
	adv      game.Adversary
	deadline time.Time
}

func (u untilDeadline) Next(last float64, step int) (stream.Update, bool) {
	if !time.Now().Before(u.deadline) {
		return stream.Update{}, false
	}
	return u.adv.Next(last, step)
}

// phaseGame runs the adaptive_game workload: first the untimed twin — the
// AMS attack against an unprotected single-shard f2 tenant, which it must
// break — then for dur two concurrent games against the robust tenants,
// every round one 1-update POST and one blocking estimate GET, every
// published estimate judged against the exact norm.
func (r *run) phaseGame(ctx context.Context, dur time.Duration) error {
	c := r.dep.clients[0]
	sizing := fp.SizeF2(gameEps, 0.05)
	rows := sizing.Rows * sizing.Width
	check := game.RelCheck(gameEps)

	if r.round == 0 {
		twin := tenantDef{Key: "game-twin", Spec: client.TenantSpec{Sketch: "f2", Policy: "none", Shards: 1}}
		if _, err := c.CreateTenant(ctx, twin.Key, twin.Spec); err != nil {
			return fmt.Errorf("create twin: %w", err)
		}
		tres, err := game.RunTarget(client.NewGameTarget(ctx, c, twin.Key),
			adversary.NewAMSAttack(rows, gameAttackC, subSeed(r.seed, roleGame)),
			func(f *stream.Freq) float64 { return f.Fp(2) }, check,
			game.Config{MaxSteps: gameTwinRounds, Warmup: gameWarmup, StopOnBreak: true})
		if err != nil {
			return err
		}
		r.res.Attempted += 2 * tres.Steps
		r.res.setValue("game.static_break_step", float64(tres.BrokenAt))
		if err := c.DeleteKey(ctx, twin.Key); err != nil {
			return fmt.Errorf("delete twin: %w", err)
		}
	}

	defer r.cal.during(calGame)()
	total := newPhaseStats(dur)
	parts := make([]*phaseStats, len(r.w.Tenants))
	results := make([]game.Result, len(r.w.Tenants))
	errs := make([]error, len(r.w.Tenants))
	var wg sync.WaitGroup
	var passed atomic.Int32
	r.gameRSS = 0
	atRSS := func() {
		if int(passed.Add(1)) == len(r.w.Tenants) {
			r.gameRSS, _ = r.dep.hwm() // a failed read leaves 0: the end of the round is used
		}
	}
	start := time.Now()
	for i, t := range r.w.Tenants {
		parts[i] = newPhaseStats(dur)
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			tgt := &timedTarget{
				inner: client.NewGameTarget(ctx, c, key), start: start, st: parts[i],
				counts: map[uint64]int64{}, atRSS: atRSS,
			}
			adv := untilDeadline{
				adv:      adversary.NewAMSAttack(rows, gameAttackC, subSeed(r.seed, roleGame+1+uint64(r.round*len(r.w.Tenants)+i))),
				deadline: start.Add(dur),
			}
			results[i], errs[i] = game.RunTarget(tgt, adv,
				func(*stream.Freq) float64 { return math.Sqrt(tgt.f2) }, check,
				game.Config{Warmup: gameWarmup})
		}(i, t.Key)
	}
	sampleCPU(total, start, r.dep.pids())
	wg.Wait()
	for i, p := range parts {
		total.merge(p)
		if errs[i] != nil {
			total.firstErr = errs[i]
		}
		g := results[i]
		r.res.check("game "+r.w.Tenants[i].Key+" stayed in the envelope", !g.Broken,
			"left 1±%.2f at round %d of %d: estimate %.3f, true L2 %.3f", gameEps, g.BrokenAt, g.Steps, g.BrokenEst, g.BrokenTru)
	}
	r.res.addPhase(total)
	r.game = append(r.game, total)
	return nil
}
