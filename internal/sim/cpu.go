package sim

import "time"

// CPU models a single-core processor (the paper evaluates on an STM32F767).
// Work submitted with Exec is serialized: each job starts no earlier than
// the completion of all previously submitted jobs, and completes after its
// stated cost of virtual compute time. This is how cryptographic operation
// latencies (threshold signing, share verification, combining) are charged
// against protocol latency, and how packets queue behind a busy CPU — the
// effect the paper's DMA alignment module exists to mitigate.
type CPU struct {
	sched     *Scheduler
	busyUntil time.Duration
	queued    int
	busyTotal time.Duration
}

// NewCPU returns a CPU bound to the scheduler.
func NewCPU(s *Scheduler) *CPU {
	return &CPU{sched: s}
}

// Exec schedules fn to run after cost of serialized compute time. Zero-cost
// jobs still run asynchronously (on the next scheduler step) to keep event
// ordering uniform. The completion rides the scheduler's allocation-free
// queue slot; CPU jobs cannot be cancelled once submitted.
func (c *CPU) Exec(cost time.Duration, fn func()) {
	if cost < 0 {
		cost = 0
	}
	start := c.sched.Now()
	if c.busyUntil > start {
		start = c.busyUntil
	}
	done := start + cost
	c.busyUntil = done
	c.busyTotal += cost
	c.queued++
	c.sched.postCPU(done, fn, c)
}

// Busy reports whether the CPU has outstanding work at the current time.
func (c *CPU) Busy() bool { return c.busyUntil > c.sched.Now() || c.queued > 0 }

// BusyTotal returns the cumulative compute time charged so far.
func (c *CPU) BusyTotal() time.Duration { return c.busyTotal }
