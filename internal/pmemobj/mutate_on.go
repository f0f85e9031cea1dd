//go:build crashmutate

package pmemobj

import "os"

// Crashmutate builds compile deliberate crash-consistency bugs into the
// commit protocol so the crash-point explorer (internal/crashx) can
// mutation-validate that the fsck harness actually fails when the
// protocol is broken. The active mutant is selected at run time through
// POSEIDON_MUTATE, so one test binary can exercise each bug in
// isolation:
//
//	skipflush  (default) — tx.commit invalidates the undo log without
//	                       having flushed its last touched range, so
//	                       recovery trusts a commit whose data may never
//	                       have reached media
//	groupfence           — SnapshotAll publishes the batched undo
//	                       entries' count without its fence (the one
//	                       publication fence every commit issues for its
//	                       whole group), so the entries are never
//	                       durably valid and crash rollback misses them
//
// Never set this tag outside those tests.
func mutateActive(name string) bool {
	m := os.Getenv("POSEIDON_MUTATE")
	if m == "" {
		m = "skipflush"
	}
	return m == name
}

func mutateSkipFlush() bool { return mutateActive("skipflush") }

func mutateGroupFence() bool { return mutateActive("groupfence") }
