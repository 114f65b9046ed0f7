// Package obs is the instrumentation layer of the repository: a
// dependency-free metric registry (atomic counters, callback gauges, and
// log-bucketed latency histograms with quantile snapshots) plus a per-query
// Trace that records phase spans (plan compile, DP build per tree, merge
// setup, first result) and the enumerator memory counters behind the paper's
// MEM(k) analysis.
//
// The paper's central claims are about time-to-first-result, the delay
// between consecutive results, and the memory a ranked enumeration keeps
// alive — quantities that exist only while a query runs. The registry makes
// the service-lifetime aggregates scrapeable (hand-rolled Prometheus text
// exposition, no client library), and the Trace makes a single enumeration's
// phase breakdown inspectable after the fact, so "the warm session was fast"
// decomposes into "compile was a cache hit and build cost 40µs".
//
// Everything here is safe for concurrent use and allocation-light on the hot
// paths: observing a histogram value is a few atomic adds, and a nil *Trace
// is a valid no-op receiver so call sites do not branch.
package obs
