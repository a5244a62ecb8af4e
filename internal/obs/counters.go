package obs

import "ertree/internal/backend"

// Counters is the engine's one counter set: the only declaration of its
// admission, deepening and search-work counts. The engine keeps one value
// and hands out copies; engine.Stats (/stats), Sample (/debug/obs), /healthz
// and the telemetry registry (/metrics) all read these fields under these
// names. Fields are cumulative unless marked as gauges. Add sums both kinds,
// so a multi-engine server folds its engines into one value with one Add per
// engine.
type Counters struct {
	// Gauges: point-in-time readings.
	InFlight  int64 // sessions holding an admission slot
	Waiting   int64 // requests queued for a slot
	TableFill int64 // occupied transposition-table slots (sampled)
	TableLen  int64 // transposition-table capacity

	// Admission.
	Started       int64 // sessions admitted
	Completed     int64 // sessions that reached their full requested depth
	DeadlineCut   int64 // sessions cut short by their deadline
	Failed        int64 // sessions that errored
	Rejected      int64 // admissions refused: ShedFull + ShedTimeout + ShedCancelled
	ShedFull      int64 // immediate refusals (no queue configured)
	ShedTimeout   int64 // queue waits that expired
	ShedCancelled int64 // callers that gave up while queued

	// Deepening.
	Iterations int64 // completed deepening iterations
	Researches int64 // wide-window re-searches
	Probes     int64 // root-driver null-window probes
	// TableTicks counts table aging ticks: one per session admitted to a
	// table-backed engine. Unlike the table's own generation it never wraps.
	TableTicks int64

	// Search work, summed over every backend search of every session.
	backend.Totals
}

// Add folds o into c.
func (c *Counters) Add(o Counters) {
	c.InFlight += o.InFlight
	c.Waiting += o.Waiting
	c.TableFill += o.TableFill
	c.TableLen += o.TableLen
	c.Started += o.Started
	c.Completed += o.Completed
	c.DeadlineCut += o.DeadlineCut
	c.Failed += o.Failed
	c.Rejected += o.Rejected
	c.ShedFull += o.ShedFull
	c.ShedTimeout += o.ShedTimeout
	c.ShedCancelled += o.ShedCancelled
	c.Iterations += o.Iterations
	c.Researches += o.Researches
	c.Probes += o.Probes
	c.TableTicks += o.TableTicks
	c.Totals.Add(o.Totals)
}
