package core

import (
	"context"
	"sync"
)

// workPool runs jobs on a fixed set of goroutines fed by one unbuffered
// queue; it is the executor of both campaign engines. One dispatcher
// goroutine hands jobs over with send, in order, and then calls wait.
// Cancellation stops the dispatch and lets every started job drain. A job
// a worker receives after cancellation is dropped rather than started, so
// nothing begins past the point where the context was cancelled.
type workPool[J any] struct {
	ctx  context.Context
	jobs chan J
	wg   sync.WaitGroup
}

// startPool starts workers goroutines, each calling work with its own
// index (0 ≤ worker < workers) for every job it takes from the queue.
func startPool[J any](ctx context.Context, workers int, work func(worker int, job J)) *workPool[J] {
	p := &workPool[J]{ctx: ctx, jobs: make(chan J)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				if ctx.Err() == nil {
					work(w, job)
				}
			}
		}()
	}
	return p
}

// send blocks until a worker takes job, and reports false, without
// queueing it, once the context is cancelled.
func (p *workPool[J]) send(job J) bool {
	select {
	case p.jobs <- job:
		return true
	case <-p.ctx.Done():
		return false
	}
}

// wait closes the queue and returns once every dispatched job has
// finished or been dropped.
func (p *workPool[J]) wait() {
	close(p.jobs)
	p.wg.Wait()
}
