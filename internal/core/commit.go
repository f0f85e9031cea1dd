package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"poseidon/internal/index"
	"poseidon/internal/pmem"
	"poseidon/internal/pmemobj"
	"poseidon/internal/storage"
	"poseidon/internal/trace"
)

// --- shard lock ordering ---
//
// Every code path that needs more than one shard commit lock MUST acquire
// them through lockShards (or lockAllShards), which takes the locks in
// ascending shard order. Shard locks nest outside the pool/lane mutexes
// and the table mutex; nothing that holds a pool transaction may wait on
// a shard commit lock. poseidonlint's lockorder pass enforces that no
// other function takes two shard commit locks directly.

// lockShards acquires the commit locks of the given shards, which must be
// sorted in ascending order. Contention is charged to each shard's
// lock-wait gauge and, when a commit span is supplied, attributed to the
// individual shard on the span (sp may be nil).
func (e *Engine) lockShards(order []int, sp *trace.Span) {
	for _, s := range order {
		sh := &e.shards[s]
		// TryLock first: the uncontended fast path pays no clock reads,
		// and the failure count is a scheduling-independent contention
		// measure (unlike wait time, which conflates lock contention
		// with CPU scarcity on oversubscribed hosts).
		if sh.commitMu.TryLock() {
			continue
		}
		sh.lockContended.Add(1)
		start := time.Now()
		sh.commitMu.Lock()
		if w := time.Since(start); w > 0 {
			sh.lockWaitNs.Add(uint64(w.Nanoseconds()))
			if sp != nil {
				sp.SetAttr(fmt.Sprintf("lock_wait_shard%d_ns", s), w.Nanoseconds())
			}
		}
	}
}

// unlockShards releases the commit locks in reverse acquisition order.
func (e *Engine) unlockShards(order []int) {
	for i := len(order) - 1; i >= 0; i-- {
		e.shards[order[i]].commitMu.Unlock()
	}
}

// lockAllShards takes every shard commit lock (ascending); used by
// physical GC, whose adjacency rewrites touch records in arbitrary
// shards, and by online index creation's quiesce step.
func (e *Engine) lockAllShards()   { e.lockShards(e.allShards, nil) }
func (e *Engine) unlockAllShards() { e.unlockShards(e.allShards) }

// commitShards returns the sorted set of shards whose commit locks this
// transaction needs: the shard of every dirty object, plus the shards of
// the property records an update will free. Old property chains are
// normally co-sharded with their owner, but a reopen with a different
// shard count repartitions chunk ownership, so the chain is walked
// rather than assumed.
func (tx *Tx) commitShards() []int {
	e := tx.e
	set := make(map[int]struct{}, 2)
	for _, key := range tx.order {
		d := tx.dirty[key]
		set[e.shardOf(key)] = struct{}{}
		if d.hasOld && d.propsChanged && !d.isDelete {
			oldHead := d.oldNode.Props
			if key.kind == kindRel {
				oldHead = d.oldRel.Props
			}
			e.addPropChainShards(oldHead, set)
		}
	}
	order := make([]int, 0, len(set))
	for s := range set {
		order = append(order, s)
	}
	sort.Ints(order)
	return order
}

// addPropChainShards adds the shard of every record in the property chain
// starting at head to set. The chain structure is committed state and the
// caller's objects are write-locked, so the walk is stable.
func (e *Engine) addPropChainShards(head uint64, set map[int]struct{}) {
	for id := head; id != storage.NilID; {
		off, ok := e.props.RecordOffset(id)
		if !ok {
			return
		}
		set[e.props.ShardOf(id)] = struct{}{}
		id = e.dev.ReadU64(off + storage.PNext)
	}
}

// Commit persists the transaction (§5.1 Commit) through the commit
// pipeline (commitGroup) as a group of one. A cancelled context turns
// Commit into a rollback: nothing of the transaction becomes visible.
func (tx *Tx) Commit() error {
	tx.endMu.Lock()
	defer tx.endMu.Unlock()
	if ended, err := tx.endEarly(); ended {
		return err
	}
	return tx.e.commitGroup(tx.commitShards(), []*Tx{tx})[0]
}

// CommitBatch commits the given transactions together: members touching
// the same set of shards form one group, and each group runs the commit
// pipeline once, so its members share one undo-log publication fence and
// one lock-release drain (the Blizzard-style barrier batching). Groups
// commit one after another in a deterministic order. The caller must own
// every transaction and not use them concurrently. Returns one result
// per transaction, in input order.
//
// Bulk loaders use it to batch commits without relying on scheduling,
// and the crash-point explorer uses it to get a replayable device-event
// sequence through multi-member groups.
func (e *Engine) CommitBatch(txs []*Tx) []error {
	errs := make([]error, len(txs))
	type group struct {
		order []int
		txs   []*Tx
		idx   []int
	}
	groups := make(map[uint64]*group)
	var masks []uint64
	for i, tx := range txs {
		tx.endMu.Lock()
		defer tx.endMu.Unlock()
		if ended, err := tx.endEarly(); ended {
			errs[i] = err
			continue
		}
		order := tx.commitShards()
		var mask uint64 // shards < maxShardLanes = 64
		for _, s := range order {
			mask |= 1 << uint(s)
		}
		g := groups[mask]
		if g == nil {
			g = &group{order: order}
			groups[mask] = g
			masks = append(masks, mask)
		}
		g.txs = append(g.txs, tx)
		g.idx = append(g.idx, i)
	}
	sort.Slice(masks, func(a, b int) bool { return masks[a] < masks[b] })
	for _, m := range masks {
		g := groups[m]
		for j, err := range e.commitGroup(g.order, g.txs) {
			errs[g.idx[j]] = err
		}
	}
	return errs
}

// endEarly ends a transaction that needs no commit pipeline: one already
// over (ErrTxDone), one whose context is cancelled (rolled back, the
// context's error), or one without writes (committed). ended is false
// when the transaction must take the pipeline. Caller holds tx.endMu.
func (tx *Tx) endEarly() (ended bool, err error) {
	if tx.done.Load() {
		return true, ErrTxDone
	}
	if err := tx.ctxErr(); err != nil {
		tx.setAbortReason(AbortCancelled)
		_ = tx.abortLocked()
		return true, err
	}
	if len(tx.order) == 0 {
		tx.e.tel.TxCommits.Inc()
		tx.finish()
		return true, nil
	}
	return false, nil
}

// pushedVer is a superseded committed version pushed into a DRAM chain
// by step 1 of a commit, remembered so a failed commit can take it back.
type pushedVer struct {
	c *chain
	v *version
}

// commitGroup is the commit pipeline (§5.1 Commit). It commits one or
// more live transactions with writes, whose commit shards all lie in
// order (sorted ascending), as one unit:
//
//  1. Superseded committed versions are pushed into the DRAM version
//     chains so older readers keep a consistent view after the PMem
//     records are overwritten.
//  2. All record rewrites, property-chain writes and slot releases of
//     every member run in a single pmemobj undo-log transaction on the
//     lane of the lowest shard, so the whole group is failure-atomic
//     (DG4; the paper's PMDK-based approach). The transaction opens with
//     one SnapshotAll over every range known in advance, so their undo
//     images become valid behind a single publication fence.
//  3. Secondary indexes are updated and records are unlocked with
//     single 8-byte stores after the commit point, all behind one drain;
//     a crash in between leaves stale locks that recovery clears and
//     index entries that reconcileIndexes repairs.
//  4. Transaction-level GC bookkeeping and the counters.
//
// Sharding: only the commit locks of the shards in order are taken
// (ascending, via lockShards). Because every persistent range written
// here belongs to a held shard, concurrent commits on disjoint shards
// write disjoint ranges into distinct lanes, and crash rollback of the
// lanes is order-independent. Commit order within a shard is serialized
// by its lock; cross-shard transactions serialize with every involved
// shard. Serializability does not depend on the lock scope — MVTO's
// timestamp protocol provides it — so the global commit watermark (the
// clock) needs no extra publication step.
//
// A group whose undo images overflow the lane splits in half and retries
// each half, so members only abort for the reasons a group of one would.
// Callers hold every member's endMu. Returns one result per member.
func (e *Engine) commitGroup(order []int, txs []*Tx) []error {
	errs := make([]error, len(txs))
	writes := 0
	for _, tx := range txs {
		writes += len(tx.order)
	}
	// Request tracing: Session.Exec (and the server's explicit COMMIT
	// path) attach their span to the transaction's context; with tracing
	// off the handles are nil and every span call below no-ops.
	cspan := trace.FromContext(txs[0].Context()).Child("core.commit", trace.KindCommit)
	cspan.SetAttr("shards", int64(len(order)))
	cspan.SetAttr("writes", int64(writes))
	if len(order) > 1 {
		cspan.SetAttr("cross_shard", true)
	}
	e.lockShards(order, cspan)
	locked := true
	defer func() {
		if locked {
			e.unlockShards(order)
		}
	}()

	// Step 1: preserve old versions for updates (deletes keep serving old
	// readers from the PMem record itself, whose window just gets closed).
	var pushed []pushedVer
	for _, tx := range txs {
		for _, key := range tx.order {
			d := tx.dirty[key]
			if !d.hasOld || d.isDelete {
				continue
			}
			var v *version
			if d.key.kind == kindNode {
				old := d.oldNode
				v = &version{bts: old.Bts, ets: tx.id, node: &old, props: d.oldProps}
			} else {
				old := d.oldRel
				v = &version{bts: old.Bts, ets: tx.id, rel: &old, props: d.oldProps}
			}
			c := tx.chainsForKey(d.key).getOrCreate(d.key.id)
			c.push(v)
			pushed = append(pushed, pushedVer{c, v})
		}
	}

	// Step 2: the failure-atomic persist, on the lowest shard's lane. A
	// shard that runs out of property-record slots rolls the lane back;
	// capacity is reserved outside every commit lock (chunk appends
	// mutate global allocator state) and the persist retried.
	var psp *trace.Span
	var preDev pmem.StatsSnapshot
	if cspan != nil {
		//poseidonlint:ignore lifecycle psp exists iff cspan != nil; every exit path Ends it inside the same nil guard
		psp = cspan.Child("pmem.persist", trace.KindPMem)
		preDev = e.dev.Stats.Snapshot()
	}
	var err error
	for {
		ranges := e.groupRanges(txs)
		err = e.pool.RunTxLane(e.shards[order[0]].lane, func(ptx *pmemobj.Tx) error {
			if err := ptx.SnapshotAll(ranges); err != nil {
				return err
			}
			for _, tx := range txs {
				for _, key := range tx.order {
					if err := tx.applyDirty(ptx, tx.dirty[key]); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if !errors.Is(err, storage.ErrShardFull) {
			break
		}
		e.unlockShards(order)
		locked = false
		if err = e.reserveProps(txs); err != nil {
			break
		}
		psp.SetAttr("shard_full_retries", int64(1))
		e.lockShards(order, cspan)
		locked = true
	}
	if err != nil {
		// The lane transaction rolled back all persistent changes; the
		// volatile free lists may hold stale hints, which inserts prune
		// against the bitmaps. Undo the version pushes and release the
		// shard locks — aborts and the split retries re-acquire them.
		for _, p := range pushed {
			p.c.remove(p.v)
		}
		if locked {
			e.unlockShards(order)
			locked = false
		}
		if errors.Is(err, pmemobj.ErrLogFull) && len(txs) > 1 {
			psp.End()
			cspan.SetAttr("split", true)
			cspan.End()
			e.groupSplits.Add(1)
			mid := len(txs) / 2
			return append(e.commitGroup(order, txs[:mid]), e.commitGroup(order, txs[mid:])...)
		}
		err = fmt.Errorf("core: commit failed: %w", err)
		for i, tx := range txs {
			tx.setAbortReason(AbortCommitFailed)
			_ = tx.abortLocked()
			errs[i] = err
		}
		psp.SetError(err)
		psp.End()
		cspan.SetError(err)
		cspan.End()
		return errs
	}

	// Step 3: secondary index maintenance (still under the shard locks,
	// so per-shard index updates observe commit order), then release the
	// write locks. The commit point has passed; the lock releases are
	// plain failure-atomic 8-byte stores, and one drain makes them and the
	// flushed index leaves durable for the whole group.
	e.updateIndexes(txs)
	for _, tx := range txs {
		for _, key := range tx.order {
			off := tx.recordOffset(key)
			e.dev.WriteU64(off, 0) // txn-id is field 0 of both record types
			e.dev.Flush(off, 8)
		}
	}
	e.dev.Drain()
	if psp != nil {
		// The device delta over-attributes under concurrency (commits on
		// other shards share the device); it is a locality signal, not an
		// exact charge.
		d := e.dev.Stats.Snapshot().Sub(preDev)
		psp.SetAttr("line_flushes", int64(d.LineFlushes))
		psp.SetAttr("block_writes", int64(d.BlockWrites))
		psp.SetAttr("drains", int64(d.Drains))
		psp.End()
	}

	// The dirty versions are now redundant: the PMem records carry the
	// committed state. Deleted objects keep a committed tombstone version
	// out of the chain too — the PMem record serves old readers.
	for _, tx := range txs {
		for _, key := range tx.order {
			d := tx.dirty[key]
			tx.chainsForKey(d.key).getOrCreate(d.key.id).remove(d.ver)
		}
	}

	// Step 4: GC bookkeeping and counters, under the shard locks.
	for _, tx := range txs {
		tx.enqueueGC()
	}
	n := uint64(len(txs))
	for _, s := range order {
		e.shards[s].commits.Add(n)
	}
	if len(order) > 1 {
		e.crossCommits.Add(n)
	}
	e.groupEpochs.Add(1)
	e.groupMembers.Add(n)
	e.unlockShards(order)
	locked = false
	for _, tx := range txs {
		e.tel.TxCommits.Inc()
		tx.finish()
	}
	cspan.End()
	return errs
}

// groupRanges collects every persistent range the members are known to
// touch — dirty records, the old property records an update frees and
// their occupancy-bitmap words, and the bitmap words the new property
// records will be allocated from — so one SnapshotAll publishes them
// behind a single fence. applyDirty's own Snapshot calls then dedup
// against the coverage; only ranges the prediction misses (slots freed
// by the same commit and reused, chunk headers) still log individually.
// Caller holds the commit locks of every shard the members touch, so no
// other allocation can take the predicted slots.
func (e *Engine) groupRanges(txs []*Tx) []pmemobj.Range {
	var out []pmemobj.Range
	needs := propNeeds(txs)
	for _, s := range sortedKeys(needs) {
		for _, w := range e.props.NextFreeWordOffs(s, needs[s]) {
			out = append(out, pmemobj.Range{Off: w, N: 8})
		}
	}
	for _, tx := range txs {
		for _, key := range tx.order {
			d := tx.dirty[key]
			recSize := uint64(storage.NodeRecordSize)
			if d.key.kind == kindRel {
				recSize = storage.RelRecordSize
			}
			out = append(out, pmemobj.Range{Off: tx.recordOffset(d.key), N: recSize})
			if d.hasOld && d.propsChanged && !d.isDelete {
				head := d.oldNode.Props
				if d.key.kind == kindRel {
					head = d.oldRel.Props
				}
				for id := head; id != storage.NilID; {
					poff, ok := e.props.RecordOffset(id)
					if !ok {
						break
					}
					out = append(out, pmemobj.Range{Off: poff, N: storage.PropRecordSize})
					if w, ok := e.props.BitmapWordOff(id); ok {
						out = append(out, pmemobj.Range{Off: w, N: 8})
					}
					id = e.dev.ReadU64(poff + storage.PNext)
				}
			}
		}
	}
	return out
}

// propNeeds returns, per shard, the number of property records the
// members' commits will insert.
func propNeeds(txs []*Tx) map[int]int {
	needs := make(map[int]int)
	for _, tx := range txs {
		for _, key := range tx.order {
			d := tx.dirty[key]
			if d.isDelete || !d.propsChanged || len(d.ver.props) == 0 {
				continue
			}
			needs[tx.e.shardOf(key)] += (len(d.ver.props) + storage.PItemsMax - 1) / storage.PItemsMax
		}
	}
	return needs
}

// sortedKeys returns the shards of a per-shard count in ascending order;
// sorted iteration keeps the device-event sequence deterministic for
// crash-point replay.
func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// reserveProps reserves the property-record capacity the members'
// commits need — what to ensure before retrying after ErrShardFull.
// Caller holds no commit lock (chunk appends mutate global allocator
// state).
func (e *Engine) reserveProps(txs []*Tx) error {
	needs := propNeeds(txs)
	for _, s := range sortedKeys(needs) {
		if err := e.props.EnsureShardFreeN(s, needs[s]); err != nil {
			return err
		}
	}
	return nil
}

func (tx *Tx) chainsForKey(key objKey) *chainTable {
	if key.kind == kindNode {
		return tx.e.nodeChainsOf(key.id)
	}
	return tx.e.relChainsOf(key.id)
}

func (tx *Tx) tableFor(k objKind) *storage.Table {
	if k == kindNode {
		return tx.e.nodes
	}
	return tx.e.rels
}

func (tx *Tx) recordOffset(key objKey) uint64 {
	off, ok := tx.tableFor(key.kind).RecordOffset(key.id)
	if !ok {
		panic(fmt.Sprintf("core: dirty %v %d has no record", key.kind, key.id))
	}
	return off
}

// applyDirty writes one dirty object into PMem within the commit
// transaction. The record's txn-id word keeps the lock until after the
// commit point. New property records are constrained to the dirty
// object's shard so the commit lane only ever covers held shards.
func (tx *Tx) applyDirty(ptx *pmemobj.Tx, d *dirtyObj) error {
	e := tx.e
	off := tx.recordOffset(d.key)
	recSize := storage.NodeRecordSize
	if d.key.kind == kindRel {
		recSize = storage.RelRecordSize
	}
	if err := ptx.Snapshot(off, uint64(recSize)); err != nil {
		return err
	}

	switch {
	case d.isDelete:
		// Close the validity window; content and properties stay for old
		// readers until GC reclaims the slot.
		if d.key.kind == kindNode {
			e.dev.WriteU64(off+storage.NEts, tx.id)
			flags := e.dev.ReadU32(off + storage.NFlags)
			e.dev.WriteU32(off+storage.NFlags, flags|storage.FlagTombstone)
		} else {
			e.dev.WriteU64(off+storage.REts, tx.id)
			flags := e.dev.ReadU32(off + storage.RFlags)
			e.dev.WriteU32(off+storage.RFlags, flags|storage.FlagTombstone)
		}
		return nil

	default:
		// Insert or update: replace the record content and, if they
		// changed, the properties. Adjacency-only updates keep the
		// committed property chain (DG1).
		var head uint64
		if d.propsChanged {
			if d.hasOld {
				var oldHead uint64
				if d.key.kind == kindNode {
					oldHead = d.oldNode.Props
				} else {
					oldHead = d.oldRel.Props
				}
				if err := storage.FreePropChainTx(ptx, e.props, oldHead); err != nil {
					return err
				}
			}
			var err error
			head, err = storage.WritePropChainShardTx(ptx, e.props, d.key.id, d.ver.props, e.shardOf(d.key))
			if err != nil {
				return err
			}
		} else if d.key.kind == kindNode {
			head = d.oldNode.Props
		} else {
			head = d.oldRel.Props
		}
		if d.key.kind == kindNode {
			rec := *d.ver.node
			rec.TxnID = tx.id // still locked until step 3
			rec.Bts = tx.id
			rec.Ets = Infinity
			rec.Props = head
			storage.WriteNodeRec(e.dev, off, &rec)
		} else {
			rec := *d.ver.rel
			rec.TxnID = tx.id
			rec.Bts = tx.id
			rec.Ets = Infinity
			rec.Props = head
			storage.WriteRelRec(e.dev, off, &rec)
		}
		return nil
	}
}

// Abort rolls the transaction back (§5.1): dirty versions are discarded,
// write locks released, and slots of uncommitted inserts reclaimed.
func (tx *Tx) Abort() error {
	tx.endMu.Lock()
	defer tx.endMu.Unlock()
	return tx.abortLocked()
}

func (tx *Tx) abortLocked() error {
	if tx.done.Load() {
		return ErrTxDone
	}
	e := tx.e
	// Count the abort once, with its first-recorded classification. A
	// reasonless rollback of a read-only transaction is normal query
	// cleanup, not an abort.
	if r := tx.abortReason.Load(); r != 0 {
		e.tel.TxAborts[AbortReason(r-1)].Inc()
	} else if len(tx.order) > 0 {
		e.tel.TxAborts[AbortExplicit].Inc()
	}
	for i := len(tx.order) - 1; i >= 0; i-- {
		d := tx.dirty[tx.order[i]]
		tx.chainsForKey(d.key).getOrCreate(d.key.id).remove(d.ver)
		if d.isInsert {
			// The slot was persistently allocated at operation time; give
			// it back on its shard's lane, under the shard's commit lock,
			// so the release cannot overlap a concurrent commit's undo
			// log. Readers always saw the record locked, so nobody can
			// hold a reference.
			s := e.shardOf(d.key)
			sh := &e.shards[s]
			tbl := tx.tableFor(d.key.kind)
			sh.commitMu.Lock()
			err := e.pool.RunTxLane(sh.lane, func(ptx *pmemobj.Tx) error {
				return tbl.ReleaseTx(ptx, d.key.id)
			})
			sh.commitMu.Unlock()
			if err != nil {
				return fmt.Errorf("core: abort: release %v %d: %w", d.key.kind, d.key.id, err)
			}
			tx.chainsForKey(d.key).drop(d.key.id)
			continue
		}
		off := tx.recordOffset(d.key)
		e.dev.WriteU64(off, 0)
		e.dev.Persist(off, 8)
	}
	tx.finish()
	return nil
}

// --- secondary index maintenance ---

// updateIndexes applies the members' committed changes to every
// matching (label, property) index. Runs under the commit locks of the
// involved shards; a node's entries live in its own shard's trees, so
// each update only touches held shards. Inserts are collected per tree
// and applied with one InsertManyFlushed each — one leaf-flush sweep per
// tree for the whole group, made durable by the caller's lock-release
// drain. Members write disjoint objects, so
// deferring the inserts past other members' deletes cannot reorder two
// operations on the same entry.
func (e *Engine) updateIndexes(txs []*Tx) {
	var trees []*index.Tree
	adds := make(map[*index.Tree][]index.Entry)
	for _, tx := range txs {
		for _, key := range tx.order {
			d := tx.dirty[key]
			if d.key.kind != kindNode {
				continue
			}
			if !d.propsChanged && !d.isDelete && d.hasOld && d.oldNode.Label == d.ver.node.Label {
				continue // adjacency-only update: index entries unchanged
			}
			sh := &e.shards[e.shardOf(d.key)]
			sh.idxMu.RLock()
			if len(sh.indexes) == 0 {
				sh.idxMu.RUnlock()
				continue
			}
			// Deleted nodes keep their index entries until GC reclaims the
			// slot: older snapshots may still reach them through the index,
			// and newer readers re-validate against their snapshot anyway.
			if d.hasOld && !d.isDelete {
				for _, p := range d.oldProps {
					if t := sh.indexes[indexKey{d.oldNode.Label, p.Key}]; t != nil {
						t.Delete(p.Val, d.key.id)
					}
				}
			}
			if !d.isDelete {
				for _, p := range d.ver.props {
					if t := sh.indexes[indexKey{d.ver.node.Label, p.Key}]; t != nil {
						if adds[t] == nil {
							trees = append(trees, t)
						}
						adds[t] = append(adds[t], index.Entry{Key: p.Val, ID: d.key.id})
					}
				}
			}
			sh.idxMu.RUnlock()
		}
	}
	for _, t := range trees {
		// Index degradation is survivable: it is a secondary structure,
		// repaired by reconcileIndexes and rebuilt if dropped.
		_ = t.InsertManyFlushed(adds[t])
	}
}

// --- transaction-level garbage collection (§5.3) ---

// enqueueGC records the committed deletions for later physical
// reclamation, each on its own shard's queue.
func (tx *Tx) enqueueGC() {
	e := tx.e
	for _, key := range tx.order {
		d := tx.dirty[key]
		if !d.isDelete {
			continue
		}
		sh := &e.shards[e.shardOf(d.key)]
		sh.gcMu.Lock()
		sh.gcQueue = append(sh.gcQueue, d.key)
		sh.gcMu.Unlock()
	}
}

// runGC reclaims storage at transaction-level granularity. Version chains
// are pruned against the oldest active timestamp on every transaction
// end; physical slot reclamation (bitmap-free, DG5) runs only in
// quiescent moments, when no transaction can be traversing the records,
// and under every shard's commit lock, because unlinking a relationship
// rewrites next-pointers of records in arbitrary shards.
func (e *Engine) runGC(quiescent bool) {
	// Fast path: nothing to collect (read-only steady state).
	hasChains, hasQueue := false, false
	for i := range e.shards {
		sh := &e.shards[i]
		if sh.nodeChains.live.Load() > 0 || sh.relChains.live.Load() > 0 {
			hasChains = true
		}
		sh.gcMu.Lock()
		if len(sh.gcQueue) > 0 {
			hasQueue = true
		}
		sh.gcMu.Unlock()
	}
	if !hasChains && !hasQueue {
		return
	}
	minActive := e.minActive()
	if hasChains {
		for i := range e.shards {
			e.pruneChains(e.shards[i].nodeChains, minActive)
			e.pruneChains(e.shards[i].relChains, minActive)
		}
	}
	if !quiescent {
		return
	}
	var queue []objKey
	for i := range e.shards {
		sh := &e.shards[i]
		sh.gcMu.Lock()
		queue = append(queue, sh.gcQueue...)
		sh.gcQueue = nil
		sh.gcMu.Unlock()
	}
	if len(queue) == 0 {
		return
	}
	e.lockAllShards()
	defer e.unlockAllShards()
	// Relationships first, then nodes, so unlinking still finds the
	// endpoint records in place.
	for _, key := range queue {
		if key.kind == kindRel {
			e.reclaimRel(key.id)
		}
	}
	for _, key := range queue {
		if key.kind == kindNode {
			e.reclaimNode(key.id)
		}
	}
}

func (e *Engine) pruneChains(t *chainTable, minActive uint64) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for id, c := range s.m {
			if c.prune(minActive) == 0 {
				delete(s.m, id)
				t.live.Add(-1)
			}
		}
		s.mu.Unlock()
	}
}

// reclaimRel physically unlinks a tombstoned relationship from both
// adjacency lists and releases its slot and property records. Caller
// holds every shard commit lock, so the built-in undo log cannot overlap
// any lane.
//
//poseidonlint:ignore seqlock caller holds every shard commitMu (reclaim runs inside lockAllShards), so no writer can race these reads
func (e *Engine) reclaimRel(id uint64) {
	off, ok := e.rels.RecordOffset(id)
	if !ok || !e.rels.Occupied(id) {
		return
	}
	rec := storage.ReadRelRec(e.dev, off)
	if rec.Flags&storage.FlagTombstone == 0 {
		return
	}
	e.unlinkRel(id, rec.Src, rec.NextSrc, true)
	e.unlinkRel(id, rec.Dst, rec.NextDst, false)
	err := e.pool.RunTx(func(ptx *pmemobj.Tx) error {
		if err := storage.FreePropChainTx(ptx, e.props, rec.Props); err != nil {
			return err
		}
		return e.rels.ReleaseTx(ptx, id)
	})
	if err != nil {
		e.rels.ResyncVolatile()
		e.props.ResyncVolatile()
		return
	}
	e.relRTSOf(id).forget(id)
	e.relChainsOf(id).drop(id)
}

// unlinkRel removes relationship id from one adjacency list of node n.
// The rewritten next-pointers are plain 8-byte failure-atomic stores:
// every intermediate state yields the same visible relationship set.
func (e *Engine) unlinkRel(id, nodeID, next uint64, out bool) {
	nodeOff, ok := e.nodes.RecordOffset(nodeID)
	if !ok || !e.nodes.Occupied(nodeID) {
		return
	}
	headField := nodeOff + storage.NOut
	nextField := uint64(storage.RNextSrc)
	if !out {
		headField = nodeOff + storage.NIn
		nextField = storage.RNextDst
	}
	cur := e.dev.ReadU64(headField)
	if cur == id {
		e.dev.WriteU64(headField, next)
		e.dev.Persist(headField, 8)
		return
	}
	for cur != storage.NilID {
		curOff, ok := e.rels.RecordOffset(cur)
		if !ok || !e.rels.Occupied(cur) {
			return
		}
		n := e.dev.ReadU64(curOff + nextField)
		if n == id {
			e.dev.WriteU64(curOff+nextField, next)
			e.dev.Persist(curOff+nextField, 8)
			return
		}
		cur = n
	}
}

// reclaimNode releases a tombstoned node's slot and property records,
// and drops the node's (deferred) secondary-index entries. Caller holds
// every shard commit lock.
//
//poseidonlint:ignore seqlock caller holds every shard commitMu (reclaim runs inside lockAllShards), so no writer can race these reads
func (e *Engine) reclaimNode(id uint64) {
	off, ok := e.nodes.RecordOffset(id)
	if !ok || !e.nodes.Occupied(id) {
		return
	}
	rec := storage.ReadNodeRec(e.dev, off)
	if rec.Flags&storage.FlagTombstone == 0 {
		return
	}
	sh := &e.shards[e.nodes.ShardOf(id)]
	sh.idxMu.RLock()
	if len(sh.indexes) > 0 {
		for _, p := range storage.ReadPropChain(e.props, rec.Props) {
			if t := sh.indexes[indexKey{rec.Label, p.Key}]; t != nil {
				t.Delete(p.Val, id)
			}
		}
	}
	sh.idxMu.RUnlock()
	err := e.pool.RunTx(func(ptx *pmemobj.Tx) error {
		if err := storage.FreePropChainTx(ptx, e.props, rec.Props); err != nil {
			return err
		}
		return e.nodes.ReleaseTx(ptx, id)
	})
	if err != nil {
		e.nodes.ResyncVolatile()
		e.props.ResyncVolatile()
		return
	}
	e.nodeRTSOf(id).forget(id)
	e.nodeChainsOf(id).drop(id)
}
