//go:build crashmutate

package crashx

import (
	"context"
	"testing"
)

// Mutation-validation of the commit pipeline's publication fence: under
// the crashmutate tag with POSEIDON_MUTATE=groupfence, SnapshotAll
// publishes a group's undo entries without the single count-word fence
// every commit issues (internal/pmemobj, mutateGroupFence). The count
// word then never durably validates the batched entries, so a crash
// inside the apply phase rolls back nothing and leaves a torn commit
// behind. Every commit — a Tx.Commit group of one as much as a
// CommitBatch group — publishes through that fence, so the explorer
// MUST catch the mutant on both workload mixes.

func TestMutationCaughtGroupFence(t *testing.T) {
	t.Setenv("POSEIDON_MUTATE", "groupfence")
	for _, mix := range []string{MixIU, MixIngest} {
		name := mix
		if name == MixIU {
			name = "iu"
		}
		t.Run(name, func(t *testing.T) {
			res, err := Explore(context.Background(), Options{
				Persons: 8,
				Ops:     8,
				Seed:    7,
				// The vulnerable windows sit inside each commit's apply
				// phase, after the operations' own events — sample
				// uniformly over the whole run rather than enumerating a
				// prefix.
				Random: 250,
				Mix:    mix,
				Progress: func(format string, args ...any) {
					t.Logf(format, args...)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) == 0 {
				t.Fatalf("planted skipped-group-fence mutation not detected over %d crash points", res.Points)
			}
			first := res.Violations[0]
			t.Logf("mutation caught: %s", first)

			// The schedule ID must reproduce the violation from scratch.
			v, err := Replay(context.Background(), first.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			if v == nil {
				t.Fatalf("schedule %s did not reproduce its violation", first.Schedule)
			}
		})
	}
}
