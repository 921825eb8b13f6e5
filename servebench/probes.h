// Per-layer probes of the traced run: the model, module, kernel and
// data layers timed on their own, at the workload's scale and
// micro-batch sizes, outside the serving stack. Every call is a span.

#ifndef SERVEBENCH_PROBES_H_
#define SERVEBENCH_PROBES_H_

#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "data/example.h"
#include "models/model_dims.h"
#include "models/ranker.h"

namespace servebench {

struct ProbeShape {
  awmoe::ModelDims dims;
  /// Rows of one scoring micro-batch.
  int64_t batch_rows = 96;
  /// Candidates per session; `batch_rows / session_rows` sessions make
  /// one micro-batch, and the gate and session encoding run once per
  /// session (one row each).
  int64_t session_rows = 12;
  /// Rerank slate length (models.listwise.slate_us).
  int64_t slate_rows = 24;
};

/// Times, per call (median over the probe's calls), in microseconds:
/// `ScoreInto`, `GateInto`, `EncodeSessionInto`, `ScoreWithSessionInto`
/// of `model` (an AW-MoE at shape.dims); standalone input network,
/// activation unit, gate network and expert bank at the same dims;
/// `MatMulInto` at the paper expert shape and the 16x8 gate shape (as
/// GFLOP/s); `CollateBatch` of one micro-batch; `ScoreSlateInto` of
/// `reranker` on one slate. `rows` holds the micro-batch's candidates,
/// sessions contiguous. Appends the metrics (names as in
/// BENCHMARK.json) to `metrics`.
void RunLayerProbes(const Population& population, const ProbeShape& shape,
                    awmoe::Ranker* model, awmoe::Ranker* reranker,
                    const std::vector<awmoe::Example>& rows, Tracer* tracer,
                    std::vector<Metric>* metrics);

/// Dense-layer flops of one candidate's full AW-MoE forward, computed
/// from the dims: towers, activation and gate units per behaviour
/// position, and the experts (embedding lookups and element-wise ops
/// are not counted).
double AwMoeFlopsPerCandidate(const awmoe::DatasetMeta& meta,
                              const awmoe::ModelDims& dims);

}  // namespace servebench

#endif  // SERVEBENCH_PROBES_H_
