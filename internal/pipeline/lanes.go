package pipeline

import (
	"sync"
	"sync/atomic"
)

// RunLanes executes fn(0..n-1) on up to workers goroutines (the OCC lanes of
// one block's speculative pass) and waits for all of them. Lanes claim
// indexes from a shared atomic counter, so a slow index delays only the lane
// that drew it. The goroutines live for this call alone: next to a block's
// execution their start-up cost is not measurable.
func RunLanes(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
