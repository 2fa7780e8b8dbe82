package server

import (
	"errors"
	"fmt"

	"repro/internal/wal"
	"repro/internal/wire"
)

// Durability. A server created with Open and a non-empty Config.DataDir
// journals every state-changing operation — tenant create, acknowledged
// update batches, tenant delete — to a write-ahead log before the HTTP ack,
// and periodically folds each mergeable tenant's sketch state into a
// per-tenant checkpoint (the snapshot envelope plus the resolved TenantSpec,
// so recovery re-declares the tenant exactly).
//
// Ordering is log → apply → ack under one lock: holding the tenant's
// writeMu, an update batch is appended to the WAL, handed to the engine
// whole (engine.Apply) and acknowledged once the lock is released. So log
// order is apply order and, as the engine cuts by batches alone, a tenant is
// a function of its resolved spec, seed and update records, read or not. A
// batch the log refuses never reaches the engine. Delivery stays
// at-least-once: a crash between append and ack recovers a batch the client
// re-sends (client.UpdateRetry), so the log IS the acknowledged stream plus
// at most the batches in flight at the crash, the state the crash-recovery
// e2e asserts against.
//
// A checkpoint is a write: every write, checkpoint and unmap of a tenant
// holds its writeMu past writable. The batch that crosses CheckpointEvery
// checkpoints before its ack, /v1/merge before its 200, and DELETE and
// ApplyShipment unmap a tenant only while the key still maps to it. So no
// checkpoint outlives its tenant's mapping, at most one runs per key, and
// once Drain has passed every tenant lock the tenant map and the log are
// frozen. The checkpoint's LSN is the log head taken under writeMu, so no
// update for that tenant can sit between the serialized sketch state and the
// recorded position. Every export reads under the tenant lock the same way —
// a checkpoint, a shipment (ShipTenant) and a /v1/snapshot — so each is the
// state after one acknowledged batch, and the mass and deleted mass a
// checkpoint or shipment carries are that state's. wal.Open locks the
// directory: it has one owner.
//
// Recovery has one rule: a record at or below its key's restored checkpoint
// LSN is history; every other record replays in log order, an update record
// as one tenant.apply (the engine's Apply and the ledger's count, as ingest
// applied it), and a torn final record is truncated, never a failed boot. A
// checkpoint that fails to load restores nothing, and its key's create
// record re-declares the tenant. Robust tenants are never checkpointed: full
// replay rebuilds them, flip-budget state exact. A checkpoint past the
// recovered log head is retaken at the head.

// RecoveryStats describes what Open rebuilt from the data directory.
type RecoveryStats struct {
	// Tenants recovered (checkpoints plus create-record re-declarations).
	Tenants int
	// ReplayedUpdates is the number of stream updates re-applied from the
	// log tail.
	ReplayedUpdates int
	// WAL reports what the log scan found and repaired (torn bytes
	// truncated, corrupt segments quarantined).
	WAL wal.Stats
	// SkippedCheckpoints counts checkpoint files that were corrupt or no
	// longer resolvable; their tenants fell back to full replay.
	SkippedCheckpoints int
}

// Open is New plus a data directory: with an empty cfg.DataDir it is exactly
// New; otherwise it opens (or creates) the write-ahead log in cfg.DataDir,
// recovers every tenant from checkpoints and log replay, and journals all
// subsequent mutations under cfg.Fsync. Call Shutdown (not just Drain) on a
// durable server so final checkpoints land before exit.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if s.cfg.DataDir == "" {
		return s, nil
	}
	pol, err := wal.ParsePolicy(s.cfg.Fsync)
	if err != nil {
		return nil, err
	}
	l, err := wal.Open(s.cfg.DataDir, wal.Options{Fsync: pol})
	if err != nil {
		return nil, err
	}
	cks, corrupt, err := wal.LoadCheckpoints(s.cfg.DataDir)
	if err != nil {
		l.Close()
		return nil, err
	}
	s.wal = l
	s.recovery.WAL = l.Stats()
	s.recovery.SkippedCheckpoints = len(corrupt)
	if err := s.recoverLocked(cks); err != nil {
		for _, t := range s.tenants {
			t.eng.Close()
		}
		l.Close()
		return nil, err
	}
	s.recovery.Tenants = len(s.tenants)
	return s, nil
}

// Recovery returns what Open rebuilt. Zero value for non-durable servers.
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// Durable reports whether the server journals to a write-ahead log.
func (s *Server) Durable() bool { return s.wal != nil }

// recoverLocked rebuilds the tenant map from checkpoints and log replay. It
// runs before the server serves traffic, so it owns the maps without locks.
func (s *Server) recoverLocked(cks map[string]wal.Checkpoint) error {
	// restored[key]: the key's records at or below it are history its
	// restored checkpoint already holds.
	restored := make(map[string]uint64)
	for key, ck := range cks {
		t, err := s.rebuild(key, ck.Spec, ck.State, ck.Mass, ck.Deleted)
		if err != nil {
			// Corrupt or incompatible state: the key's create record
			// re-declares the tenant and full replay rebuilds it.
			s.recovery.SkippedCheckpoints++
			continue
		}
		s.tenants[key] = t
		restored[key] = ck.LSN
	}

	var ubuf []wire.Update
	refused := make(map[string]error) // live keys whose cell this server no longer hosts
	err := s.wal.Replay(func(lsn uint64, rec wal.Record) error {
		t := s.tenants[rec.Key]
		switch {
		case lsn <= restored[rec.Key]: // history the checkpoint holds
		case rec.Kind != wal.KindUpdate:
			// A create or delete ends the key's tenant; a create declares the
			// next, past MaxKeys if need be (refusing would drop acknowledged
			// data). An unreadable spec drops its updates too.
			if t != nil {
				t.eng.Close()
				delete(s.tenants, rec.Key)
			}
			delete(refused, rec.Key)
			if rec.Kind == wal.KindCreate {
				t, err := s.rebuild(rec.Key, rec.Data, nil, 0, 0)
				switch {
				case err == nil:
					s.tenants[rec.Key] = t
				case errors.Is(err, errRobustEntropy):
					refused[rec.Key] = err
				}
			}
		case t != nil:
			us, err := wire.DecodeUpdates(rec.Data, ubuf[:0])
			if err != nil {
				return nil // CRC-valid but undecodable frame: skip, keep going
			}
			ubuf = us
			// One apply per record, as ingest applied it: the same cuts.
			t.apply(us)
			t.sinceCkpt += len(us)
			s.recovery.ReplayedUpdates += len(us)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A live robust entropy tenant is refused by name, never dropped with
	// its acknowledged updates: an earlier release, which hosts it, can
	// delete the key.
	for key, err := range refused {
		return fmt.Errorf("recover tenant %q: %w", key, err)
	}
	// A checkpoint never claims past the log head: records it covers that
	// the log lost (a torn or unsynced tail) would lend their LSNs to the
	// next appends, and the next recovery would skip those as history.
	head := s.wal.HeadLSN()
	for key, lsn := range restored {
		if lsn > head {
			if err := s.checkpoint(s.tenants[key]); err != nil {
				return err
			}
		}
	}
	return nil
}

// logCreate journals a tenant declaration. Called under s.mu before the
// tenant becomes visible, so every logged update for the key follows its
// create record.
func (s *Server) logCreate(t *tenant) error {
	if s.wal == nil {
		return nil
	}
	sh, err := t.export(false)
	if err != nil {
		return err
	}
	_, err = s.wal.Append(wal.Record{Kind: wal.KindCreate, Key: t.key, Data: sh.Spec})
	return err
}

// logDelete journals a tenant deletion.
func (s *Server) logDelete(key string) error {
	if s.wal == nil {
		return nil
	}
	_, err := s.wal.Append(wal.Record{Kind: wal.KindDelete, Key: key})
	return err
}

// logUpdates journals an update batch, before it is applied, as a wire
// updates frame — the record body on disk is byte-identical to what a
// binary-codec client sent. Caller holds t.writeMu.
func (s *Server) logUpdates(t *tenant, us []wire.Update) error {
	if s.wal == nil || len(us) == 0 {
		return nil
	}
	fp := framePool.Get().(*[]byte)
	frame := wire.AppendUpdates((*fp)[:0], us)
	_, err := s.wal.Append(wal.Record{Kind: wal.KindUpdate, Key: t.key, Data: frame})
	*fp = frame[:0]
	framePool.Put(fp)
	return err
}

// cadence counts n updates (or a shipment's weight) applied to t and, past
// CheckpointEvery, checkpoints it. The caller holds t.writeMu past writable.
// Non-mergeable tenants are never checkpointed — their recovery is replay.
func (s *Server) cadence(t *tenant, n int) {
	if s.wal == nil || !t.spec.Mergeable() {
		return
	}
	if t.sinceCkpt += n; t.sinceCkpt < s.cfg.CheckpointEvery {
		return
	}
	// Best effort: a failed checkpoint costs replay time, not data — the log
	// retains the full tail. The next write past the cadence retries it.
	_ = s.checkpoint(t)
}

// checkpoint writes a checkpoint for t at the current log head. The caller
// holds t.writeMu: no update for this tenant can land between the state
// serialization and the recorded LSN, so the cut is exact.
func (s *Server) checkpoint(t *tenant) error {
	sh, err := t.export(true)
	if err != nil {
		return err
	}
	ck := wal.Checkpoint{
		Key: t.key, LSN: s.wal.HeadLSN(), Spec: sh.Spec, State: sh.State,
		Mass: sh.Mass, Deleted: sh.Deleted,
	}
	if err := wal.WriteCheckpoint(s.cfg.DataDir, ck); err != nil {
		return err
	}
	s.ckptWrites.Add(1)
	t.sinceCkpt = 0
	return nil
}

// Shutdown drains the server and, when durable, writes a final checkpoint for
// every mergeable tenant and closes the log: nothing the server started
// touches the log or the data directory once it has returned. Drain froze the
// tenant map and the log, and the drained engine state is exactly the
// acknowledged stream (Drain flushes before Close), so after a clean Shutdown
// recovery is checkpoint-only for mergeable tenants. Robust tenants rely on
// the log, which Close syncs. Idempotent; returns the first error of all steps.
func (s *Server) Shutdown() error {
	s.Drain()
	if s.wal == nil {
		return nil
	}
	var firstErr error
	for _, t := range s.tenantList() {
		if !t.spec.Mergeable() {
			continue
		}
		t.writeMu.Lock()
		err := s.checkpoint(t)
		t.writeMu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := s.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
