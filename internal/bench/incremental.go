package bench

import (
	"fmt"
	"time"

	"hippo/internal/core"
)

// E10IncrementalMaintenance measures an update-interleaved workload —
// alternating single-row INSERT/DELETE statements with consistent queries
// — under two hypergraph-maintenance regimes:
//
//   - full-rebuild: the pre-refactor lifecycle, simulated by calling
//     System.Invalidate() after every update so the next consistent query
//     pays a complete conflict re-detection. The background maintainer
//     is paused, since it would otherwise fold some updates as deltas
//     in the window between the write and the Invalidate;
//   - incremental: the live pipeline, where each DML delta probes the
//     per-constraint hash indexes and touches only the affected
//     hyperedges.
//
// Both regimes execute the identical statement sequence and are checked
// to produce the same number of consistent answers.
func E10IncrementalMaintenance(sc Scale) (Table, error) {
	n := sc.N
	updates := n / 10
	if updates < 10 {
		updates = 10
	}
	t := Table{
		ID:    "E10",
		Title: fmt.Sprintf("Update-interleaved workload: incremental vs full-rebuild maintenance (n=%d, %d update+query pairs)", n, updates),
		Header: []string{"regime", "total ms", "ms/pair", "deltas", "edges+", "edges-",
			"full rebuilds", "answers"},
		Notes: "Each pair is one INSERT or DELETE on emp followed by a consistent point query " +
			"(SELECT * FROM emp WHERE id = k, answered via the FD's hash index). " +
			"The full-rebuild regime re-runs conflict detection on every query (the seed lifecycle); " +
			"the incremental regime folds the delta into the existing hypergraph via index probes, " +
			"so its per-pair cost is independent of table size.",
	}

	type regimeResult struct {
		elapsed time.Duration
		maint   core.MaintenanceStats
		answers int
	}
	runRegime := func(invalidate bool) (regimeResult, error) {
		var out regimeResult
		sys, _, err := empSystem(n, 0.02, 23)
		if err != nil {
			return out, err
		}
		defer sys.Close()
		if invalidate {
			sys.SetEagerFolding(false)
		}
		db := sys.DB()
		base := sys.Maintenance()
		start := time.Now()
		for i := 0; i < updates; i++ {
			if i%2 == 0 {
				// Insert a row that collides with an existing id half the
				// time (new FD edge) and is fresh otherwise.
				id := n + i
				if i%4 == 0 {
					id = i % n
				}
				stmt := fmt.Sprintf("INSERT INTO emp VALUES (%d, 'upd%06d', %d, %d)",
					id, i, i%100, 95000+i%20000)
				if _, _, err := db.Exec(stmt); err != nil {
					return out, err
				}
			} else {
				if _, _, err := db.Exec(fmt.Sprintf("DELETE FROM emp WHERE id = %d", i%n)); err != nil {
					return out, err
				}
			}
			if invalidate {
				sys.Invalidate()
			}
			_, st, err := sys.ConsistentQuery(
				fmt.Sprintf("SELECT * FROM emp WHERE id = %d", (i*7)%n), core.Options{Tier: core.TierForceProver})
			if err != nil {
				return out, err
			}
			out.answers += st.Answers
		}
		out.elapsed = time.Since(start)
		out.maint = sys.Maintenance().Sub(base)
		return out, nil
	}

	full, err := runRegime(true)
	if err != nil {
		return t, err
	}
	inc, err := runRegime(false)
	if err != nil {
		return t, err
	}
	if full.answers != inc.answers {
		return t, fmt.Errorf("bench: regimes disagree: full-rebuild=%d answers, incremental=%d",
			full.answers, inc.answers)
	}
	row := func(name string, r regimeResult) []string {
		return []string{
			name, ms(r.elapsed),
			fmt.Sprintf("%.3f", float64(r.elapsed.Microseconds())/1000.0/float64(updates)),
			fmt.Sprint(r.maint.DeltasApplied),
			fmt.Sprint(r.maint.EdgesAdded), fmt.Sprint(r.maint.EdgesRemoved),
			fmt.Sprint(r.maint.FullRebuilds), fmt.Sprint(r.answers),
		}
	}
	t.Rows = append(t.Rows, row("full-rebuild", full), row("incremental", inc))
	if inc.elapsed > 0 {
		t.Notes += fmt.Sprintf(" Speedup: %.1fx.", float64(full.elapsed)/float64(inc.elapsed))
	}
	return t, nil
}
