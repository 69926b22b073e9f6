// Thread-local search-step accounting for the parallel-scaling metric.
//
// A "step" is one candidate separator examined, anywhere in the recursion
// (log-k child or parent candidates, det-k candidates inside the hybrid).
// tls_search_steps counts every step on the executing thread.
//
// DriveCandidates snapshots the executing thread's counter around each slot
// (parallel) or the whole search (sequential), so a candidate's *entire
// nested cost* — including recursive Decompose calls and det-k leaf work run
// on that thread — is credited to the slot that ran it. Only the frame
// outermost on its thread credits its delta, so a step inside nested
// searches is counted once, not once per enclosing level.
#pragma once

namespace htd {

inline thread_local long tls_search_steps = 0;

inline void AddSearchStep() { ++tls_search_steps; }
inline long CurrentSearchSteps() { return tls_search_steps; }

}  // namespace htd
