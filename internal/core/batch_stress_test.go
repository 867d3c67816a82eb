package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/value"
)

// TestBatchAtomicityStress asserts the group-commit correctness bar under
// -race: readers only ever observe batch boundaries. A writer advances a
// table through generations, each generation swap being ONE batch that
// deletes the previous generation and inserts the next (same i keys, new
// gn). Under the FD i → gn, any interleaving of a partially applied swap
// would surface immediately: two generations sharing an i value conflict,
// so the consistent answer set would lose rows (or mix gn values). Every
// reader must therefore see exactly R rows, all from one generation, with
// generations nondecreasing per reader.
func TestBatchAtomicityStress(t *testing.T) {
	const (
		readers     = 4
		generations = 150
		rowsPerGen  = 8
	)
	db := engine.New()
	mustExec(db, "CREATE TABLE gen (gn INT, i INT)")
	fd := constraint.FD{Rel: "gen", LHS: []string{"i"}, RHS: []string{"gn"}}
	sys := NewSystem(db, []constraint.Constraint{fd})
	if _, err := sys.Analyze(); err != nil {
		t.Fatal(err)
	}
	seed := make([]string, 0, rowsPerGen)
	for i := 0; i < rowsPerGen; i++ {
		seed = append(seed, fmt.Sprintf("INSERT INTO gen VALUES (0, %d)", i))
	}
	if _, err := db.ExecBatch(seed); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer: one atomic swap per generation
		defer wg.Done()
		defer done.Store(true)
		for g := 1; g <= generations; g++ {
			stmts := []string{fmt.Sprintf("DELETE FROM gen WHERE gn = %d", g-1)}
			for i := 0; i < rowsPerGen; i++ {
				stmts = append(stmts, fmt.Sprintf("INSERT INTO gen VALUES (%d, %d)", g, i))
			}
			if _, err := db.ExecBatch(stmts); err != nil {
				errs <- fmt.Errorf("writer generation %d: %w", g, err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastGen := int64(-1)
			for !done.Load() {
				res, st, err := sys.ConsistentQuery("SELECT * FROM gen", Options{})
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if len(res.Rows) == 0 && lastGen < 0 && st.Epoch == 1 {
					// A reader that starts before the writer's first batch
					// returns is served the initial empty view (epoch 1,
					// from Analyze), which is itself a batch boundary.
					// Pinning the exemption to that epoch keeps it from
					// masking a real mid-batch empty view, which would
					// carry a later epoch.
					continue
				}
				if len(res.Rows) != rowsPerGen {
					errs <- fmt.Errorf("reader %d saw %d rows (a batch prefix), want %d: %v",
						r, len(res.Rows), rowsPerGen, res.Rows)
					return
				}
				gn := res.Rows[0][0]
				for _, row := range res.Rows {
					if !value.Equal(row[0], gn) {
						errs <- fmt.Errorf("reader %d saw mixed generations %v and %v", r, gn, row[0])
						return
					}
				}
				g := gn.I
				if g < lastGen {
					errs <- fmt.Errorf("reader %d went back in time: %d after %d", r, g, lastGen)
					return
				}
				lastGen = g
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The final state is generation `generations`, fully intact.
	res, _, err := sys.ConsistentQuery(
		fmt.Sprintf("SELECT * FROM gen WHERE gn = %d", generations), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != rowsPerGen {
		t.Fatalf("final generation has %d rows, want %d", len(res.Rows), rowsPerGen)
	}
}
