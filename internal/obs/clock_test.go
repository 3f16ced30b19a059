package obs

import (
	"sync"
	"time"
)

// fakeClock is a deterministic Clock advancing a fixed step per read.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *fakeClock) read() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}
