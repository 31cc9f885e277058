package sim

import "time"

// CPU models a single-core processor (the paper evaluates on an STM32F767).
// Work submitted with Exec or Charge is serialized: each job starts no
// earlier than the completion of all previously submitted jobs, and
// completes after its stated cost of virtual compute time. This is how
// cryptographic operation latencies (threshold signing, share verification,
// combining) are charged against protocol latency, and how packets queue
// behind a busy CPU — the effect the paper's DMA alignment module exists to
// mitigate.
type CPU struct {
	sched     *Scheduler
	busyUntil time.Duration
	busyTotal time.Duration
}

// NewCPU returns a CPU bound to the scheduler.
func NewCPU(s *Scheduler) *CPU {
	return &CPU{sched: s}
}

// Charge queues cost of serialized compute time behind everything already
// submitted and returns when it completes. Nothing runs at completion: the
// caller holds whatever waits on the work until then itself (a transport
// holds the medium until its frame's signature is done).
func (c *CPU) Charge(cost time.Duration) time.Duration {
	if cost < 0 {
		cost = 0
	}
	c.busyUntil = max(c.busyUntil, c.sched.Now()) + cost
	c.busyTotal += cost
	return c.busyUntil
}

// Exec schedules fn to run after cost of serialized compute time: Charge,
// then an event at its completion. Zero-cost jobs still run
// asynchronously (on the next scheduler step) to keep event ordering
// uniform. The completion rides the scheduler's allocation-free Post; CPU
// jobs cannot be cancelled once submitted.
func (c *CPU) Exec(cost time.Duration, fn func()) { c.sched.Post(c.Charge(cost), fn) }

// Busy reports whether the CPU has work charged beyond the current time.
func (c *CPU) Busy() bool { return c.busyUntil > c.sched.Now() }

// BusyTotal returns the cumulative compute time charged so far.
func (c *CPU) BusyTotal() time.Duration { return c.busyTotal }
