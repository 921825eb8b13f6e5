// The benchmark's output checks, each a pure function of what the
// serving path returned and what was computed apart from it, plus the
// self-test that feeds every check a deliberately wrong input.

#ifndef SERVEBENCH_CHECKS_H_
#define SERVEBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mat/matrix.h"
#include "serving/request.h"

namespace servebench {

/// The response is OK and has one finite score in (0, 1) per candidate.
bool CheckWellFormed(const awmoe::RankResponse& response, size_t candidates,
                     std::string* why);

/// Served scores against reference logits (the autograd-graph
/// `InferenceLogits` of the version the response names). The served
/// logit may differ from the reference by the fast-tier tolerance the
/// kernel-tier tests use (1e-5 absolute or 512 ULPs of the logit); the
/// served score must be the sigmoid of some logit in that window, up to
/// the float sigmoid's own rounding (4 ULPs of the score).
bool CheckAgainstLogits(const std::vector<double>& served,
                        const awmoe::Matrix& reference_logits,
                        std::string* why);

/// Two score vectors are bitwise equal.
bool CheckBitwise(const std::vector<double>& served,
                  const std::vector<double>& recomputed, const char* what,
                  std::string* why);

/// `ranking` is a permutation of [0, n).
bool CheckPermutation(const std::vector<size_t>& ranking, size_t n,
                      std::string* why);

/// The benchmark's own count of OK responses equals the sum of the
/// serving layer's request counters.
bool CheckCount(int64_t ok_responses, int64_t served_requests,
                std::string* why);

/// One served response kept for the self-test, with the reference
/// logits of its own version and of another version.
struct SelfTestInput {
  awmoe::RankResponse response;
  awmoe::Matrix own_logits;
  awmoe::Matrix other_version_logits;
  /// A slate-model response and its direct recompute (may be empty).
  std::vector<double> rerank_scores;
  int64_t ok_responses = 0;
  int64_t served_requests = 0;
};

/// Feeds each check a wrong input (a perturbed score, a score checked
/// against the wrong model version, a missing response, a rerank score
/// off by one ULP, a ranking with a repeated index) and the right input.
/// Returns false, with `why` naming the check, if any check accepts the
/// wrong input or rejects the right one.
bool SelfTest(const SelfTestInput& input, std::string* why);

}  // namespace servebench

#endif  // SERVEBENCH_CHECKS_H_
