// Package poolonly is the golden fixture of the poolonly analyzer. This
// file plays the role of the engine's parallel.go: the one place goroutines
// may be spawned.
package poolonly

import "sync"

// pooled mirrors fanOut: worker goroutines are spawned here, and only here.
func pooled(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}
