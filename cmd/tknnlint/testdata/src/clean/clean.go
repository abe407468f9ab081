// Package clean walks every rule's happy path at once; the linter must
// report nothing and exit zero here.
package clean

import "sync"

// Counter is fully disciplined: every access holds mu.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Inc increments under the lock.
func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Value reads under the lock.
func (c *Counter) Value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
