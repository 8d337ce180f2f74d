package main

import "time"

// pacer is the open-loop schedule: operation i is due at start + i/rate,
// whatever happened to the operations before it. Callers time each
// operation from its due time (not from when it was actually sent), so a
// stall in the system under test is charged to every operation that was
// waiting behind it, and the generator's own lateness is recorded.
type pacer struct {
	start    time.Time
	interval time.Duration
	late     *latencies

	now   func() time.Time    // injectable for the self-tests
	sleep func(time.Duration) // injectable for the self-tests
}

// quantum is the shortest time the generator sleeps. On a 2-core host a
// generator that spins until each due time takes a whole core from the
// system it is loading; sleeping at least a quantum and then sending
// everything that has come due costs each operation up to a quantum of
// lateness (recorded, and included in what is timed from the due time)
// and leaves the core to the program.
const quantum = 200 * time.Microsecond

func newPacer(ratePerSec float64, lateCap int) *pacer {
	return &pacer{
		interval: time.Duration(float64(time.Second) / ratePerSec),
		late:     newLatencies(lateCap),
		now:      time.Now,
		sleep:    time.Sleep,
	}
}

func (p *pacer) begin() { p.start = p.now() }

func (p *pacer) due(i int64) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// wait blocks until operation i is due and returns its due time. The
// recorded lateness is how far past due the generator was when it
// returned; it never shifts later due times.
func (p *pacer) wait(i int64) time.Time {
	due := p.due(i)
	for {
		d := due.Sub(p.now())
		if d <= 0 {
			p.late.add(int64(-d))
			return due
		}
		p.sleep(max(d, quantum))
	}
}
