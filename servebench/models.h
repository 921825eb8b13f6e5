// The models the benchmark serves. Each comes from a short seeded
// training run on the population's labelled sessions, followed by a
// temperature (1/4 for AW-MoE, 1/8 for the reranker) on its output
// layer. The temperature scales every
// logit by the same factor, so it keeps every ranking; it keeps the
// scores inside (0, 1) in float. Without it some seeds give logits past
// 16.6 (untrained AW-MoE weights reach 52, one epoch of training 16.4
// on 9,600 rows, four epochs more), whose float sigmoid is exactly 1.

#ifndef SERVEBENCH_MODELS_H_
#define SERVEBENCH_MODELS_H_

#include <cstdint>
#include <memory>

#include "bench_common.h"
#include "models/model_dims.h"
#include "models/ranker.h"

namespace servebench {

/// An AW-MoE-CL ranker at `dims`, initialised from `seed` and trained
/// for one epoch with the contrastive loss. The temperature scales each
/// expert's output layer (the logit is the gate-weighted sum of the
/// expert scores, Eq. 9).
std::unique_ptr<awmoe::Ranker> TrainedAwMoe(const Population& population,
                                            const awmoe::ModelDims& dims,
                                            uint64_t seed);

/// A listwise self-attention reranker at `dims`, trained for one epoch
/// with the ListNet loss (invariant to a shift of the logits, so
/// nothing anchors their magnitude). The temperature scales the scoring
/// head's output layer.
std::unique_ptr<awmoe::Ranker> TrainedReranker(const Population& population,
                                               const awmoe::ModelDims& dims,
                                               uint64_t seed);

}  // namespace servebench

#endif  // SERVEBENCH_MODELS_H_
