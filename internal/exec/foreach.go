package exec

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0) … fn(n-1) across at most workers goroutines with
// batch semantics: the first error (by time of arrival) aborts the batch —
// workers stop claiming new items and the error is returned — and a done
// context stops the batch with ctx.Err(). Items already in flight when the
// abort happens still finish; ForEach always joins its goroutines before
// returning.
//
// workers <= 1 (or n <= 1) runs sequentially on the calling goroutine.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		done    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		first   error
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || stopped.Load() || ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					stopped.Store(true)
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	if done.Load() < int64(n) {
		// Items were skipped and no fn errored: the context did it.
		return ctx.Err()
	}
	return nil
}
