package core

// Asynchronous merging (Options.AsyncMerge). The paper's Algorithm 3
// builds the sealed leaf's graph and every newly completed ancestor inside
// the insert call; for a streaming ingester that means an occasional
// Append stalls for the duration of a full-tree merge (see the
// musicstream example's p-max). The index has one seal routine,
// processSeal, which never builds under the lock; AsyncMerge only selects
// the goroutine that runs it:
//
//   - Append only appends; on a leaf fill it advances openLo and emits a
//     sealJob (appendLocked), whichever the mode.
//   - By default the appender runs processSeal itself before returning, so
//     the index is quiescent between Appends. With AsyncMerge the job goes
//     to a single background worker instead, which processes jobs in seal
//     order; backpressure comes from the bounded job channel.
//   - Queries brute-force the gap [installedHi, openLo) plus the open
//     leaf, so results never miss data; they are exact over that gap.
//
// The block tree, numbering, seeds — and therefore the resulting index —
// are bit-identical in both modes.

// startMergeWorker launches the background merge worker when AsyncMerge
// asks for one.
func (ix *Index) startMergeWorker() {
	if ix.opts.AsyncMerge {
		ix.jobs = make(chan sealJob, 16)
		go ix.mergeWorker()
	}
}

// mergeWorker drains the job queue. It exits when Close closes the queue.
func (ix *Index) mergeWorker() {
	for job := range ix.jobs {
		ix.processSeal(job)
		ix.pending.Done()
	}
}

// Flush blocks until every sealed leaf has installed its blocks. Without
// AsyncMerge that already holds whenever no Append is in progress.
func (ix *Index) Flush() { ix.pending.Wait() }

// Close flushes outstanding merges and stops the background worker.
// Further Appends fail; searches keep working. Close is idempotent.
// It is a no-op without AsyncMerge.
func (ix *Index) Close() error {
	if !ix.opts.AsyncMerge {
		return nil
	}
	ix.mu.Lock()
	already := ix.closed
	ix.closed = true
	ix.mu.Unlock()
	if already {
		return nil
	}
	ix.pending.Wait()
	close(ix.jobs)
	return nil
}

// PendingBuilds reports how many vectors are sealed but not yet covered
// by installed blocks — the region queries currently brute-force beyond
// the open leaf. Without AsyncMerge it is non-zero only while an Append is
// building.
func (ix *Index) PendingBuilds() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.openLo - ix.installedHiLocked()
}
