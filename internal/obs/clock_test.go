package obs

import (
	"sync"
	"testing"
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

func TestStampElapsed(t *testing.T) {
	st := NowStamp()
	if st.Elapsed() < 0 {
		t.Fatal("negative elapsed")
	}
	time.Sleep(time.Millisecond)
	if st.Seconds() <= 0 {
		t.Fatal("stamp did not advance")
	}
}
