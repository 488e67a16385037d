package core

import (
	"context"
	"sync"
)

// workPool runs shard indexes on a fixed set of goroutines fed by one
// unbuffered queue; it is the executor of the shard engine both campaign
// modes run on. One dispatcher goroutine hands shards over with send, in
// order, and then calls wait. Cancellation stops the dispatch and lets
// every started shard drain. A shard a worker receives after cancellation
// is dropped rather than started, so nothing begins past the point where
// the context was cancelled.
type workPool struct {
	ctx  context.Context
	jobs chan int
	wg   sync.WaitGroup
}

// startPool starts workers goroutines, each calling work for every shard
// it takes from the queue.
func startPool(ctx context.Context, workers int, work func(shard int)) *workPool {
	p := &workPool{ctx: ctx, jobs: make(chan int)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for shard := range p.jobs {
				if ctx.Err() == nil {
					work(shard)
				}
			}
		}()
	}
	return p
}

// send blocks until a worker takes shard, and reports false, without
// queueing it, once the context is cancelled.
func (p *workPool) send(shard int) bool {
	select {
	case p.jobs <- shard:
		return true
	case <-p.ctx.Done():
		return false
	}
}

// wait closes the queue and returns once every dispatched shard has
// finished or been dropped.
func (p *workPool) wait() {
	close(p.jobs)
	p.wg.Wait()
}
