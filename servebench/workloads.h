// The benchmark's workloads. Each builds its serving stack from the
// run's seed, measures for --seconds, checks the outputs and prints the
// result line; each returns the process exit code.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "models/ranker.h"

namespace servebench {

/// fresh_pages and repeat_pages: a 2-shard fleet over the quarter-scale
/// AW-MoE-CL ranker (fleet.cc).
int RunFleetWorkload(const RunOptions& options,
                     Clock::time_point process_start);

/// paper_rerank: the paper-scale retriever and a listwise reranker
/// behind one engine, through TwoStageRanker (rerank.cc).
int RunRerankWorkload(const RunOptions& options,
                      Clock::time_point process_start);

/// Median per-call stage times of `calls` TwoStageRanker calls on a
/// private engine serving `retriever` and `reranker`, over pages of
/// `candidates` drawn from `population` (top 24 reranked). Used by the
/// traced run of workloads whose traffic does not rerank.
struct TwoStageTimes {
  double retrieve_ms = 0.0;
  double rerank_ms = 0.0;
};
TwoStageTimes ProbeTwoStage(Population* population,
                            std::unique_ptr<awmoe::Ranker> retriever,
                            std::unique_ptr<awmoe::Ranker> reranker,
                            int64_t candidates, uint64_t seed, int calls,
                            Tracer* tracer);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
