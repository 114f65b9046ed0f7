// Package anyk is a Go reproduction of "Optimal Algorithms for Ranked
// Enumeration of Answers to Full Conjunctive Queries" (Tziavelis, Ajwani,
// Gatterbauer, Riedewald, Yang — VLDB 2020).
//
// The library enumerates the answers of full conjunctive queries in the
// order given by a selective dioid (minimum sum of input-tuple weights, and
// generalizations), with optimal time-to-first and logarithmic delay:
//
//   - internal/engine — public facade: Enumerate(db, query, dioid, algorithm)
//   - internal/core — the any-k algorithms (Take2, Lazy, Eager, All,
//     Recursive, Batch) over T-DP state spaces, plus the UT-DP union
//   - internal/dpgraph — the shared-group DP state space (equi-join encoding)
//   - internal/decomp — heavy/light simple-cycle decomposition
//   - internal/hypertree — the generalized hypertree decomposition (GHD)
//     planner for arbitrary cyclic full CQs (cliques, triangles with
//     appendages, chordal cycles, ...)
//   - internal/join — NPRR generic join and Yannakakis, the batch joins the
//     tests use as oracles
//   - internal/datalog — the Datalog program front-end: multi-rule parsing
//     (comments, string/float constants, negation), predicate-dependency
//     stratification, bottom-up materialization of non-recursive rules and
//     semi-naive fixpoints for recursive strata, handing the goal to the
//     any-k engine for ranked enumeration (anyk -program, the server's
//     "program" field, examples/datalog); constants and repeated variables
//     compile to selection predicates pushed down into the scans
//   - internal/query + internal/relation — per-atom selection predicates
//     (comparisons against constants, intra-atom column equality; the
//     "R(x, y | y > 5)" syntax) answered by filtered access paths instead
//     of materialized selection relations: filtered row-id scans, filtered
//     group indexes, and binary-searched sorted-column permutations, all
//     memoized under canonical predicate signatures
//   - internal/server — the HTTP query service: resumable ranked-enumeration
//     sessions (TTL + LRU), dataset management, CSV ingest, admission
//     control (session and in-flight limits with structured 429s); served
//     by cmd/anykd
//   - internal/obs — dependency-free observability: per-query phase traces,
//     inter-result delay histograms, MEM(k) counters, and a metric registry
//     rendered as Prometheus text exposition (GET /metrics on anykd,
//     per-session GET /v1/queries/{id}/stats, anyk -trace)
//   - internal/query, internal/relation, internal/dioid, internal/heapq,
//     internal/dataset, internal/homom — substrates
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for where each
// claim of the paper's evaluation is checked: a tier-1 test, or a metric of
// the benchmark/ module, the one performance measurement.
// examples/httpservice walks through the HTTP API.
package anyk
