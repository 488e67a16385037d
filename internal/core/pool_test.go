package core

import (
	"context"
	"reflect"
	"testing"
)

func TestWorkPoolStartsNothingAfterCancel(t *testing.T) {
	// A job cancels the context mid-run. The dispatcher may still be
	// handing the next job over at that moment; the pool must drop it, so
	// a one-worker pool stops exactly at the cancelling job. Repeat to give
	// the dispatcher's select every chance to pick the send.
	for rep := 0; rep < 200; rep++ {
		ctx, cancel := context.WithCancel(context.Background())
		var started []int
		pool := startPool(ctx, 1, func(job int) {
			started = append(started, job)
			if job == 2 {
				cancel()
			}
		})
		for i := 0; i < 10 && pool.send(i); i++ {
		}
		pool.wait()
		cancel()
		if want := []int{0, 1, 2}; !reflect.DeepEqual(started, want) {
			t.Fatalf("rep %d: jobs %v started, want %v", rep, started, want)
		}
	}
}
