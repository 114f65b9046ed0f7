package core

// Stats exposes the memory-relevant counters behind the MEM(k) analysis of
// Section 4.3.4: how many candidates/memo entries an enumerator has created
// and the high-water mark of its priority queue(s). The All variant inserts
// up to ℓn candidates per result, while Take2/Lazy/Eager stay at O(ℓ) and
// Recursive materializes O(ℓ) suffixes per result — the counters make the
// difference observable.
type Stats struct {
	// CandidatesInserted counts priority-queue insertions (anyK-part) or
	// frontier pushes (anyK-rec).
	CandidatesInserted int
	// MaxQueueSize is the largest size reached by the candidate queue
	// (anyK-part) or the sum of memoized solutions (anyK-rec).
	MaxQueueSize int
}

// StatsReporter is implemented by enumerators that track Stats.
type StatsReporter interface {
	Stats() Stats
}

// Stats implements StatsReporter for anyK-part.
func (e *partEnum[W]) Stats() Stats {
	return Stats{CandidatesInserted: e.inserted, MaxQueueSize: e.maxQueue}
}

// Add accumulates o into s. Queue high-water marks add up rather than take
// the max: concurrent enumerators (union branches, parallel shards) hold
// their queues simultaneously, so the MEM(k) bound is the sum.
func (s *Stats) Add(o Stats) {
	s.CandidatesInserted += o.CandidatesInserted
	s.MaxQueueSize += o.MaxQueueSize
}

// Stats implements StatsReporter for anyK-rec: counts memoized suffix and
// combination entries across all groups and states.
func (e *recEnum[W]) Stats() Stats {
	s := Stats{CandidatesInserted: e.pushes}
	total := 0
	for _, gs := range e.groups {
		for i := range gs {
			if rg := &gs[i]; rg.pq != nil {
				total += int(rg.len()) + rg.pq.Len()
			}
		}
	}
	for _, ms := range e.stages {
		for i := range ms.states {
			rs := &ms.states[i]
			total += int(rs.sols.len()) + rs.pq.Len()
		}
	}
	s.MaxQueueSize = total
	return s
}
