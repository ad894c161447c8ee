package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hta/internal/resources"
	"hta/internal/wq/wire"
)

// tcpParams sizes tcp-loopback: the deployable stack in one process, a
// wire.Master on a loopback port and `workers` wire.Workers of one core
// each, every task the shell no-op `:` declared at one core. The seed
// draws nothing here: the inputs are the same commands on any seed.
type tcpParams struct {
	workers  int
	bagTasks int // phase bag: submitted up front, then drained
	rttTasks int // phase rtt: closed loop, one outstanding task per worker
}

const tcpCommand = ":"

var oneCore = resources.New(1, 0, 0)

// tcpStack is a fresh master with its workers connected and primed.
type tcpStack struct {
	master  *wire.Master
	workers []*wire.Worker

	mu     sync.Mutex
	done   int
	failed int
	want   int
	all    chan struct{} // closed when `want` tasks completed
	// onDone, when set, receives every completion (rtt phase).
	onDone func(id int, at time.Time)
}

// newTCPStack is tcp-loopback's set-up: start a master, connect and
// register the workers, and run one priming task on each, so that every
// worker has forked a shell once and the timed region starts warm.
func newTCPStack(workers int) (*tcpStack, error) {
	m, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &tcpStack{master: m}
	m.OnComplete(s.complete)
	for i := 0; i < workers; i++ {
		w, err := wire.Connect(m.Addr(), wire.WorkerConfig{
			ID:       fmt.Sprintf("bench-w%d", i),
			Capacity: oneCore,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, w)
	}
	// The master registers a worker before it acknowledges it, and
	// Connect returns on the acknowledgement.
	if n := m.Stats().Workers; n != workers {
		s.close()
		return nil, fmt.Errorf("tcp-loopback: %d of %d workers registered", n, workers)
	}
	s.expect(workers, nil)
	for i := 0; i < workers; i++ {
		m.Submit(tcpCommand, "noop", oneCore)
	}
	if completed, failed := s.wait(); completed != workers || failed != 0 {
		s.close()
		return nil, fmt.Errorf("tcp-loopback: priming completed %d of %d tasks, %d failed", completed, workers, failed)
	}
	return s, nil
}

// expect starts a phase of n tasks; onDone may be nil.
func (s *tcpStack) expect(n int, onDone func(id int, at time.Time)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done, s.failed, s.want = 0, 0, n
	s.all = make(chan struct{})
	s.onDone = onDone
}

// complete runs on the master's connection-reader goroutines.
func (s *tcpStack) complete(r wire.Result) {
	at := time.Now()
	s.mu.Lock()
	s.done++
	if r.Task.ExitCode != 0 || r.Task.Err != "" {
		s.failed++
	}
	finished, onDone := s.done == s.want, s.onDone
	s.mu.Unlock()
	if onDone != nil {
		onDone(r.Task.ID, at)
	}
	if finished {
		close(s.all)
	}
}

// close disconnects the workers, waits for their loops to end, and
// shuts the master down; every `sh -c :` a worker started has been
// waited for by then, since a result is sent only after its command
// exits.
func (s *tcpStack) close() {
	for _, w := range s.workers {
		_ = w.Close() // the master is going away too; nothing to recover
		_ = w.Wait()
	}
	_ = s.master.Close()
}

// tcpTimeout bounds one phase in host time; tasks unfinished then count
// as failed.
const tcpTimeout = 60 * time.Second

// wait blocks until every task of the phase completed or the phase
// timed out, and returns the phase's outcome.
func (s *tcpStack) wait() (completed, failed int) {
	select {
	case <-s.all:
	case <-time.After(tcpTimeout):
	}
	return s.outcome()
}

// outcome returns the number of the phase's tasks that completed so far
// and the number that failed or have not finished.
func (s *tcpStack) outcome() (completed, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done, s.failed + s.want - s.done
}

// bagResult is what one bag rep measured beyond rep.
type bagResult struct {
	rep
	failed    int
	submitUS  []float64 // host time of each Submit
	bagSubmit time.Duration
}

// bagRep submits the whole bag up front and drains it: the HTC shape.
// Every Submit runs a dispatch pass over the queue it just lengthened.
// Each Submit is timed in every rep: the two clock reads are a
// thousandth of the call.
func (p tcpParams) bagRep(tr *tracer) (bagResult, error) {
	runtime.GC()
	heap := startHeapSampler()
	tr.begin("run")
	tr.begin("setup.build")
	t0 := time.Now()
	s, err := newTCPStack(p.workers)
	if err != nil {
		heap.Stop()
		return bagResult{}, err
	}
	defer s.close()
	s.expect(p.bagTasks, nil)
	setup := time.Since(t0)
	tr.end()

	before := readMem()
	tr.begin("wire.bag")
	submitUS := make([]float64, 0, p.bagTasks)
	t1 := time.Now()
	tr.begin("wire.submit")
	for i := 0; i < p.bagTasks; i++ {
		ts := time.Now()
		s.master.Submit(tcpCommand, "noop", oneCore)
		submitUS = append(submitUS, us(time.Since(ts)))
	}
	bagSubmit := time.Since(t1)
	tr.end()
	completed, failed := s.wait()
	wall := time.Since(t1)
	tr.end()
	mem := memSince(before)
	tr.end()
	return bagResult{
		rep: rep{
			setupS:     setup.Seconds(),
			wallS:      wall.Seconds(),
			tasks:      completed,
			mem:        mem,
			peakHeapMB: float64(heap.Stop()) / mb,
		},
		failed:    failed,
		submitUS:  submitUS,
		bagSubmit: bagSubmit,
	}, nil
}

// rttRep runs the closed loop: one goroutine keeps one task outstanding
// per worker, submitting the next when a completion arrives, and times
// each task from just before Submit to its OnComplete callback. With
// the queue never deeper than the fleet, what is left is the per-task
// overhead of the stack: two frames, a dispatch pass and a fork. It
// returns the round trips in milliseconds and the number of tasks that
// failed or never finished.
func (p tcpParams) rttRep() (rttMS []float64, failed int, err error) {
	type completion struct {
		id int
		at time.Time
	}
	// One slot per outstanding task: a callback never blocks.
	done := make(chan completion, p.workers)
	s, err := newTCPStack(p.workers)
	if err != nil {
		return nil, 0, err
	}
	defer s.close()
	s.expect(p.rttTasks, func(id int, at time.Time) { done <- completion{id, at} })

	starts := make(map[int]time.Time, p.workers)
	rttMS = make([]float64, 0, p.rttTasks)
	timeout := time.After(tcpTimeout)
	submitted, outstanding := 0, 0
	for submitted < p.rttTasks || outstanding > 0 {
		for outstanding < p.workers && submitted < p.rttTasks {
			ts := time.Now()
			starts[s.master.Submit(tcpCommand, "noop", oneCore)] = ts
			submitted++
			outstanding++
		}
		select {
		case c := <-done:
			rttMS = append(rttMS, ms(c.at.Sub(starts[c.id])))
			delete(starts, c.id)
			outstanding--
		case <-timeout:
			_, failed = s.outcome()
			return rttMS, failed, nil
		}
	}
	_, failed = s.outcome()
	return rttMS, failed, nil
}
