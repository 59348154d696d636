package cluster

import "sync/atomic"

// maxIdleLegWorkers bounds how many leg workers stay parked between
// searches; a worker finishing its leg past the bound exits instead. It
// caps the memory parked stacks hold and is not tuned for throughput: the
// measured workloads keep at most one leg per search off the handler's
// goroutine in flight, so what more parked workers buy is unmeasured.
const maxIdleLegWorkers = 64

// legWorkers runs scatter legs on goroutines that park between legs. A
// fresh goroutine per leg grows its stack to the leg's depth on every
// search; a parked one keeps the stack it grew. There is no timer: the idle
// count is bounded, and close releases whoever is parked.
type legWorkers struct {
	work chan func() // unbuffered: a send succeeds only into a parked worker
	quit chan struct{}
	// idle counts workers parked or about to park; it never passes
	// maxIdleLegWorkers.
	idle atomic.Int64
}

func newLegWorkers() *legWorkers {
	return &legWorkers{work: make(chan func()), quit: make(chan struct{})}
}

// run hands leg to a parked worker, or starts one if none is parked.
func (p *legWorkers) run(leg func()) {
	select {
	case p.work <- leg:
	default:
		go p.worker(leg)
	}
}

// worker runs leg, then parks for the next one, until the idle bound or
// close sends it away.
func (p *legWorkers) worker(leg func()) {
	for {
		leg()
		if !p.park() {
			return
		}
		select {
		case leg = <-p.work:
			p.idle.Add(-1)
		case <-p.quit:
			p.idle.Add(-1)
			return
		}
	}
}

// park counts one more idle worker, unless that would pass the bound.
func (p *legWorkers) park() bool {
	for {
		n := p.idle.Load()
		if n >= maxIdleLegWorkers {
			return false
		}
		if p.idle.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// close releases the parked workers; a worker busy with a leg exits once
// it is done.
func (p *legWorkers) close() { close(p.quit) }
