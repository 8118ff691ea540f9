package affinityd

// Admission control is what keeps an overloaded or restarting affinityd
// degrading gracefully instead of falling over: every machine owns a
// bounded job queue, a full queue sheds immediately (the wire answers
// 503 + Retry-After and the client retry loop backs off), a machine
// mid-replay refuses work with the same retryable shape, and jobs whose
// request deadline already expired are dropped by the worker instead of
// burning placement time on an answer nobody is waiting for.

import "context"

// defaultQueueDepth bounds a machine's admission queue when Options
// leaves QueueDepth zero. Past it the machine is genuinely behind and
// shedding beats queueing.
const defaultQueueDepth = 256

// job is one admitted unit of work: an allocation batch, a free batch,
// or a pool-open. Exactly one jobResult is delivered per job.
type job struct {
	allocs   []AllocRequest
	frees    []string
	openPool int
	// batch is the idempotency key of an alloc/free batch ("" = none):
	// a duplicate returns the committed result instead of re-executing.
	batch string
	// ctx carries the request deadline; the worker drops jobs whose
	// deadline expired before execution (but never after the journal
	// append — an appended record is committed and always executes).
	ctx context.Context
	// block is a test hook: a non-nil channel holds the worker inside
	// exec until it is closed, so tests can fill the admission queue.
	// entered, if also non-nil, is closed by the worker on entry — the
	// only reliable signal that the worker has taken this job off the
	// queue and later submissions really queue behind it.
	block   chan struct{}
	entered chan struct{}
	out     chan jobResult
}

type jobResult struct {
	placements []Placement
	freed      []FreeResult
	pool       PoolInfo
	// replayed marks a response served from the idempotency dedup cache
	// rather than fresh execution.
	replayed bool
	err      error
}

// submit hands a job to the worker. The reply arrives on j.out exactly
// once, whether the job executed or the machine closed underneath it.
// A machine mid-replay refuses with errReplaying; a full queue sheds
// with errOverloaded — both retryable, both mapped to 503 on the wire.
func (m *machine) submit(j *job) error {
	m.inflight.Add(1)
	defer m.inflight.Done()
	if m.closing.Load() {
		return errMachineClosed
	}
	if m.replaying.Load() {
		return errReplaying
	}
	select {
	case m.jobs <- j:
		return nil
	case <-m.quit:
		return errMachineClosed
	default:
		// The queue is full: shed now. The bounded queue is the whole
		// point — an overloaded machine answers "come back later" in
		// microseconds instead of letting latency grow without bound.
		m.sheds.Add(1)
		return errOverloaded
	}
}

// serve is the worker loop: one goroutine owns the machine's placement
// state and runs each job as it is received, in admission order —
// which is what keeps a seeded request stream deterministic.
func (m *machine) serve() {
	defer close(m.done)
	for {
		select {
		case j := <-m.jobs:
			m.batches.Add(1)
			j.out <- m.exec(j)
		case <-m.quit:
			m.drainAndFail()
			return
		}
	}
}

// drainAndFail answers every job still queued at teardown. inflight
// waits for submitters that already passed the closing check; after it
// returns, nothing else can enter the channel.
func (m *machine) drainAndFail() {
	m.inflight.Wait()
	for {
		select {
		case j := <-m.jobs:
			j.out <- jobResult{err: errMachineClosed}
		default:
			return
		}
	}
}
