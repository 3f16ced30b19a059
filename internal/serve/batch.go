package serve

// This file is the micro-batching dispatcher.  The queued unit is one
// validated request, admitted whole or refused whole against QueueDepth
// samples.  A batcher goroutine holds the current batch and, in one
// select, offers it on an unbuffered channel to the worker pool while it
// keeps taking requests that fit under MaxBatch samples.  An idle worker
// therefore takes a lone request at once, and requests coalesce exactly
// while every worker is busy; there is no timer.  Requests are never
// split: one that does not fit opens the next batch, and one larger than
// MaxBatch runs as a batch of its own.  A worker assembles its batch into
// one matrix per model and runs that model's GEMM-lowered batch predict.

import (
	"context"
	"time"

	"srda/internal/classify"
	"srda/internal/mat"
	"srda/internal/obs"
	"srda/internal/sparse"
)

// pending is one request in flight: its validated samples in dispatcher
// form and the slots its batch resolves.  Sample i is dense[i] when that
// is non-nil, else the sparse entries cols/vals[ptr[i]:ptr[i+1]] (sorted
// by column, exact zeros dropped).  The one worker that runs the request
// writes classes, embeddings, modelSeq and err, then closes done.
type pending struct {
	model string      // resolved registry name answering the request
	width int         // features the samples need: the model's count if any is dense, else max sparse index + 1
	dense [][]float64 // nil when every sample is sparse
	ptr   []int
	cols  []int
	vals  []float64
	// span is the request's root span; the batch opens a "batch" child
	// under it.  Nil when tracing is off.
	span *obs.ReqSpan
	// scanner owns the arena dense views for a scanned body (nil for a
	// typed request); submit returns it to the pool.
	scanner *bodyScanner

	classes    []int
	embeddings [][]float64 // nil unless the request asked for embeddings
	modelSeq   uint64
	err        error
	done       chan struct{}
}

func (p *pending) rows() int { return len(p.classes) }

func (p *pending) finish(err error) {
	p.err = err
	close(p.done)
}

// enqueue admits a request whole or refuses it whole with ErrQueueFull,
// counting its samples against QueueDepth.  It never blocks: the queue
// holds QueueDepth requests and every admitted request has a sample.
func (s *Server) enqueue(p *pending) error {
	k := int64(p.rows())
	for {
		q := s.queued.Load()
		if q+k > int64(s.opts.QueueDepth) {
			s.metrics.queueRejects.Add(k)
			s.logger.Sample("queue_full", time.Second).Warn("prediction queue full",
				"rejected", k, "queue_depth", s.opts.QueueDepth)
			s.opts.Flight.NoteQueueFull(p.span.TraceID())
			return ErrQueueFull
		}
		if s.queued.CompareAndSwap(q, q+k) {
			break
		}
	}
	s.queue <- p
	return nil
}

// batcher coalesces queued requests into batches for the worker pool.
// After Close it keeps dispatching until the queue is empty, so requests
// admitted before the stop signal are answered rather than leaked.
func (s *Server) batcher() {
	defer close(s.workCh)
	var (
		batch []*pending
		size  int      // samples in batch
		next  *pending // taken but too large to join batch: opens the next one
	)
	// intake is the queue while the batch has room, nil (never ready) once
	// it is full.
	intake := func() chan *pending {
		if next != nil || size >= s.opts.MaxBatch {
			return nil
		}
		return s.queue
	}
	take := func(p *pending) {
		s.queued.Add(-int64(p.rows()))
		if size > 0 && size+p.rows() > s.opts.MaxBatch {
			next = p
			return
		}
		batch, size = append(batch, p), size+p.rows()
	}
	handedOff := func() {
		batch, size = nil, 0
		if next != nil {
			batch, size, next = []*pending{next}, next.rows(), nil
		}
	}
	stop := s.stop
	for {
		// Coalesce what is already queued before offering the batch.
		select {
		case p := <-intake():
			take(p)
			continue
		default:
		}
		work := s.workCh
		if len(batch) == 0 {
			if stop == nil {
				return // stopped and drained
			}
			work = nil // nothing to offer: wait for a request or the stop
		}
		select {
		case work <- batch:
			handedOff()
		case p := <-intake():
			take(p)
		case <-stop:
			stop = nil
		}
	}
}

func (s *Server) worker() {
	defer s.dispatcherDone()
	for batch := range s.workCh {
		s.runBatch(batch)
	}
}

// runBatch splits a batch by registry model (requests for different
// tenants share the dispatcher but never a GEMM) and runs one inference
// sub-batch per model in first-appearance order.
func (s *Server) runBatch(batch []*pending) {
	// Single-tenant batches — the overwhelmingly common case — skip the
	// grouping allocation entirely.
	uniform := true
	for _, p := range batch[1:] {
		if p.model != batch[0].model {
			uniform = false
			break
		}
	}
	if uniform {
		s.runModelBatch(batch[0].model, batch)
		return
	}
	var order []string
	groups := make(map[string][]*pending)
	for _, p := range batch {
		if _, ok := groups[p.model]; !ok {
			order = append(order, p.model)
		}
		groups[p.model] = append(groups[p.model], p)
	}
	for _, name := range order {
		s.runModelBatch(name, groups[name])
	}
}

// runModelBatch assembles one model's requests into a matrix, runs the
// batched projection and nearest-centroid assignment on the snapshot
// loaded once for the whole sub-batch (publishes and rollbacks therefore
// never tear a batch), and writes the results back per request.
func (s *Server) runModelBatch(name string, reqs []*pending) {
	snap, ok := s.reg.Get(name)
	if !ok {
		// Evicted or deleted between enqueue and dispatch.
		err := &UnknownModelError{Name: name}
		for _, p := range reqs {
			p.finish(err)
		}
		return
	}
	m := snap.Model
	n := m.W.Rows

	// A reload may have changed the feature count since enqueue-time
	// validation; fail the now-incompatible requests instead of panicking.
	valid := reqs[:0]
	rows, allSparse := 0, true
	for _, p := range reqs {
		if p.width > n || (p.dense != nil && p.width != n) {
			p.finish(ErrModelShape)
			continue
		}
		valid = append(valid, p)
		rows += p.rows()
		allSparse = allSparse && p.dense == nil
	}
	if rows == 0 {
		return
	}
	s.metrics.batches.Inc()
	s.metrics.samples.Add(int64(rows))
	s.metrics.batchSize.Observe(float64(rows))

	// Fan-in tracing: one "batch" child per request, so each request's
	// trace shows the shared inference interval.  The kernel spans below
	// (core.gemm / core.project_csr / pool.do / classify) attach to the
	// first traced request's batch span — one execution, one set of kernel
	// spans, owned by one trace.
	spans := make([]*obs.ReqSpan, len(valid))
	var owner *obs.ReqSpan
	for i, p := range valid {
		spans[i] = p.span.StartChild("batch")
		if owner == nil {
			owner = spans[i]
		}
	}
	ctx := obs.ContextWithSpan(context.Background(), owner)

	var emb *mat.Dense
	if allSparse {
		x := &sparse.CSR{Rows: rows, Cols: n, RowPtr: make([]int, 1, rows+1)}
		for _, p := range valid {
			base := len(x.Val)
			for _, end := range p.ptr[1:] {
				x.RowPtr = append(x.RowPtr, base+end)
			}
			x.ColIdx = append(x.ColIdx, p.cols...)
			x.Val = append(x.Val, p.vals...)
		}
		emb = m.ProjectBatchCSRCtx(ctx, x, nil)
	} else {
		x := mat.NewDense(rows, n)
		r := 0
		for _, p := range valid {
			for i := 0; i < p.rows(); i, r = i+1, r+1 {
				row := x.RowView(r)
				if p.dense != nil && p.dense[i] != nil {
					copy(row, p.dense[i])
					continue
				}
				for t := p.ptr[i]; t < p.ptr[i+1]; t++ {
					row[p.cols[t]] = p.vals[t]
				}
			}
		}
		emb = m.ProjectBatchCtx(ctx, x, nil)
	}
	nc := classify.NearestCentroid{Centroids: m.Centroids}
	_, csp := obs.StartSpan(ctx, "classify")
	classes := nc.PredictBatch(emb)
	csp.End()
	r := 0
	for i, p := range valid {
		copy(p.classes, classes[r:])
		for e := range p.embeddings {
			p.embeddings[e] = append([]float64(nil), emb.RowView(r+e)...)
		}
		r += p.rows()
		p.modelSeq = snap.Version
		spans[i].End()
		p.finish(nil)
	}
}
