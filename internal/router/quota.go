package router

// Per-tenant token-bucket quotas.  A tenant is a model name: the router
// charges each predict against the bucket for the model it targets, so
// one tenant saturating its refill rate is shed with 429s while the
// other tenants' buckets — and the workers behind them — stay unharmed.
//
// Buckets use an injectable clock so quota tests are deterministic: a
// fake clock advances time explicitly instead of sleeping through
// refill windows.

import (
	"sync"
	"time"
)

// bucket is one tenant's token bucket.  tokens refill continuously at
// rate per second up to burst; a request costs one token.
type bucket struct {
	tokens float64
	last   time.Time
}

// quotas manages the per-tenant buckets.  Zero rate disables quota
// enforcement entirely (allow always admits).  A tenant is whatever
// model name a client sends, so the map is swept: a bucket that has
// refilled to burst behaves exactly like an absent one and is dropped.
// A sweep runs when the map has doubled since the last one left kept
// buckets, which keeps its cost constant per tenant added.
type quotas struct {
	mu      sync.Mutex
	rate    float64 // tokens per second per tenant
	burst   float64
	clock   func() time.Time
	buckets map[string]*bucket
	kept    int // buckets the last sweep left
}

func newQuotas(rate float64, burst int, clock func() time.Time) *quotas {
	if burst <= 0 {
		burst = 1
	}
	if clock == nil {
		clock = time.Now
	}
	return &quotas{
		rate:    rate,
		burst:   float64(burst),
		clock:   clock,
		buckets: make(map[string]*bucket),
	}
}

// allow charges one token against tenant's bucket, reporting whether the
// request is admitted.  New tenants start with a full burst.
func (q *quotas) allow(tenant string) bool {
	if q.rate <= 0 {
		return true
	}
	now := q.clock()
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.buckets[tenant]
	if b == nil {
		if len(q.buckets) >= 2*q.kept {
			q.sweepLocked(now)
		}
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	} else {
		q.refill(b, now)
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refill adds the tokens earned since b.last, capped at burst.
func (q *quotas) refill(b *bucket, now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * q.rate
		if b.tokens > q.burst {
			b.tokens = q.burst
		}
	}
	b.last = now
}

// sweepLocked drops every bucket that has refilled to burst by now.
// Caller holds q.mu.
func (q *quotas) sweepLocked(now time.Time) {
	//srdalint:ignore maprange each bucket is kept or dropped on its own state; the order of visits changes nothing
	for tenant, b := range q.buckets {
		q.refill(b, now)
		if b.tokens >= q.burst {
			delete(q.buckets, tenant)
		}
	}
	q.kept = len(q.buckets)
}
