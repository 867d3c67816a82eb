package core

import "time"

// The background maintainer: a core-level goroutine (sibling of the
// async checkpointer in durable.go) that drains queued DML deltas into
// the hypergraph — and publishes the resulting view — OFF the query
// path. Without it, the first consistent query after a write pays the
// whole delta drain inside refreshViewLocked; with it, that query
// usually finds an already-folded, already-published view and serves
// lock-free. The maintainer is nudged by the change feed (foldCh) with a
// ticker backstop, runs for in-memory and durable systems alike, and is
// stopped by Close.
//
// It only ever folds: when a full re-detection is scheduled (first
// analysis, DDL, constraint changes, queue overflow) it stays idle — a
// full Detect is expensive and its cost model belongs to the caller who
// forced it, not to a background loop that would re-run it on every
// nudge of a bulk load.

// foldPollInterval is the maintainer's ticker backstop; a variable so
// tests can tighten it.
var foldPollInterval = time.Second

// SetEagerFolding pauses (false) or resumes (true, the default) the
// background maintainer. Pausing restores the fold-on-first-query
// behavior — benchmarks use it to measure exactly that baseline, and
// overflow tests use it to let the delta queue actually fill.
func (s *System) SetEagerFolding(enabled bool) {
	s.foldOff.Store(!enabled)
	if enabled {
		s.nudgeFolder()
	}
}

// MaintenanceHealth reports — without consuming — the sticky error of
// the background maintenance plane: a failed automatic checkpoint parked
// for TakeCheckpointError, or a failed background fold. It is the
// serving tier's degradation probe (/health, /v1/stats): a read-mostly
// deployment learns that maintenance is broken even if no write ever
// comes by to drain the error.
func (s *System) MaintenanceHealth() error {
	if b := s.ckptFail.Load(); b != nil {
		return b.err
	}
	if b := s.maintFail.Load(); b != nil {
		return b.err
	}
	return nil
}

// nudgeFolder wakes the maintainer without blocking; a pending nudge
// already covers this one.
func (s *System) nudgeFolder() {
	select {
	case s.foldCh <- struct{}{}:
	default:
	}
}

// maintainLoop runs until Close. Each pass folds at most once; the
// change feed re-nudges while writes keep coming.
func (s *System) maintainLoop() {
	defer close(s.foldDone)
	t := time.NewTicker(foldPollInterval)
	defer t.Stop()
	for {
		select {
		case <-s.foldStop:
			return
		case <-s.foldCh:
		case <-t.C:
		}
		s.eagerFold()
	}
}

// testFoldHook, when set (tests only), runs in eagerFold just after the
// maintainer takes mu, so a test can park the maintainer mid-fold.
var testFoldHook func()

// eagerFold drains the delta queue into the hypergraph and publishes the
// folded view, if there is anything to fold. The cheap qmu precheck
// keeps idle ticks from touching mu at all; the real decision is
// refreshViewLocked's own, under mu — if a query got there first the
// refresh is a no-op, and if DDL scheduled a full rebuild in between,
// foldableNow turns false and the fold is skipped.
func (s *System) eagerFold() {
	if s.foldOff.Load() {
		return
	}
	if !s.foldableNow() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := testFoldHook; h != nil {
		h()
	}
	if !s.foldableNow() {
		return
	}
	if _, err := s.refreshViewLocked(s.fed.Load()); err != nil {
		// Park the failure for MaintenanceHealth; the next query's own
		// refresh will hit — and report — the same error.
		s.maintFail.Store(&errBox{err: err})
		return
	}
	s.maintFail.Store(nil)
	s.eagerFolds.Add(1)
}

// foldableNow reports whether the queue holds deltas an incremental fold
// can absorb (an existing graph, no full re-detection scheduled).
func (s *System) foldableNow() bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.analyzed && !s.needFull && len(s.pending) > 0
}
