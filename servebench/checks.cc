#include "checks.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

namespace servebench {

namespace {

std::string Format(const char* fmt, double a, double b, double c) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), fmt, a, b, c);
  return buffer;
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Steps `x` by `ulps` representable floats (negative steps down).
float StepUlps(float x, int ulps) {
  const float dir = ulps >= 0 ? std::numeric_limits<float>::infinity()
                              : -std::numeric_limits<float>::infinity();
  for (int i = 0; i < std::abs(ulps); ++i) x = std::nextafter(x, dir);
  return x;
}

}  // namespace

bool CheckWellFormed(const awmoe::RankResponse& response, size_t candidates,
                     std::string* why) {
  if (!response.status.ok()) {
    *why = "response status " + response.status.ToString();
    return false;
  }
  if (response.scores.size() != candidates) {
    *why = std::to_string(response.scores.size()) + " scores for " +
           std::to_string(candidates) + " candidates";
    return false;
  }
  for (double s : response.scores) {
    if (!std::isfinite(s) || s <= 0.0 || s >= 1.0) {
      *why = Format("score %.9g outside (0, 1)", s, 0, 0);
      return false;
    }
  }
  return true;
}

bool CheckAgainstLogits(const std::vector<double>& served,
                        const awmoe::Matrix& reference_logits,
                        std::string* why) {
  if (static_cast<int64_t>(served.size()) != reference_logits.size()) {
    *why = "reference has " + std::to_string(reference_logits.size()) +
           " logits for " + std::to_string(served.size()) + " scores";
    return false;
  }
  for (size_t j = 0; j < served.size(); ++j) {
    const float z = reference_logits.data()[static_cast<int64_t>(j)];
    const float ulp512 = std::abs(StepUlps(z, 512) - z);
    const double tol = std::max(1e-5, static_cast<double>(ulp512));
    const float lo = StepUlps(static_cast<float>(Sigmoid(z - tol)), -4);
    const float hi = StepUlps(static_cast<float>(Sigmoid(z + tol)), 4);
    const double s = served[j];
    if (!(s >= lo && s <= hi)) {
      *why = Format("score %.9g not the sigmoid of a logit within tolerance "
                    "of the reference logit %.9g (window up to %.9g)",
                    s, z, hi);
      return false;
    }
  }
  return true;
}

bool CheckBitwise(const std::vector<double>& served,
                  const std::vector<double>& recomputed, const char* what,
                  std::string* why) {
  if (served.size() != recomputed.size()) {
    *why = std::string(what) + ": size mismatch";
    return false;
  }
  for (size_t j = 0; j < served.size(); ++j) {
    if (std::bit_cast<uint64_t>(served[j]) !=
        std::bit_cast<uint64_t>(recomputed[j])) {
      *why = std::string(what) +
             Format(": %.17g vs recomputed %.17g at %g", served[j],
                    recomputed[j], static_cast<double>(j));
      return false;
    }
  }
  return true;
}

bool CheckPermutation(const std::vector<size_t>& ranking, size_t n,
                      std::string* why) {
  std::vector<bool> seen(n, false);
  if (ranking.size() != n) {
    *why = "ranking has " + std::to_string(ranking.size()) + " of " +
           std::to_string(n) + " candidates";
    return false;
  }
  for (size_t idx : ranking) {
    if (idx >= n || seen[idx]) {
      *why = "ranking repeats or overruns index " + std::to_string(idx);
      return false;
    }
    seen[idx] = true;
  }
  return true;
}

bool CheckCount(int64_t ok_responses, int64_t served_requests,
                std::string* why) {
  if (ok_responses == served_requests) return true;
  *why = "OK responses " + std::to_string(ok_responses) +
         " != served request counters " + std::to_string(served_requests);
  return false;
}

bool SelfTest(const SelfTestInput& input, std::string* why) {
  std::string ignored;
  const auto expect = [&](bool accepted, bool want, const char* name) {
    if (accepted == want) return true;
    *why = std::string("self-test: ") + name +
           (want ? " rejected the right input" : " accepted a wrong input");
    return false;
  };
  const awmoe::RankResponse& right = input.response;
  const size_t n = right.scores.size();
  if (n == 0) {
    *why = "self-test: no response to test with";
    return false;
  }

  // Well-formedness: a score of exactly 1 and a missing score.
  awmoe::RankResponse saturated = right;
  saturated.scores[0] = 1.0;
  awmoe::RankResponse short_response = right;
  short_response.scores.pop_back();
  if (!expect(CheckWellFormed(right, n, &ignored), true, "well-formed") ||
      !expect(CheckWellFormed(saturated, n, &ignored), false,
              "well-formed (score 1)") ||
      !expect(CheckWellFormed(short_response, n, &ignored), false,
              "well-formed (missing score)")) {
    return false;
  }

  // Reference: a score moved by 2e-3 in logit space (four times the
  // largest tolerance a logit below 16 gets), and the right scores
  // against another version's logits.
  std::vector<double> perturbed = right.scores;
  const double s = perturbed[n / 2];
  perturbed[n / 2] = static_cast<float>(s + 2e-3 * s * (1.0 - s));
  if (!expect(CheckAgainstLogits(right.scores, input.own_logits, &ignored),
              true, "reference") ||
      !expect(CheckAgainstLogits(perturbed, input.own_logits, &ignored),
              false, "reference (perturbed score)") ||
      !expect(CheckAgainstLogits(right.scores, input.other_version_logits,
                                 &ignored),
              false, "reference (wrong model version)")) {
    return false;
  }

  // Counts: one response missing.
  if (!expect(CheckCount(input.ok_responses, input.served_requests,
                         &ignored),
              true, "count") ||
      !expect(CheckCount(input.ok_responses - 1, input.served_requests,
                         &ignored),
              false, "count (missing response)")) {
    return false;
  }

  // Bitwise: one score off by one ULP of its float.
  const std::vector<double>& slate =
      input.rerank_scores.empty() ? right.scores : input.rerank_scores;
  std::vector<double> off = slate;
  off.back() = StepUlps(static_cast<float>(off.back()), 1);
  if (!expect(CheckBitwise(slate, slate, "bitwise", &ignored), true,
              "bitwise") ||
      !expect(CheckBitwise(off, slate, "bitwise", &ignored), false,
              "bitwise (one ULP off)")) {
    return false;
  }

  // Permutation: a repeated index.
  std::vector<size_t> ranking(n);
  std::iota(ranking.begin(), ranking.end(), size_t{0});
  std::vector<size_t> repeated = ranking;
  if (n > 1) repeated[1] = repeated[0];
  if (!expect(CheckPermutation(ranking, n, &ignored), true, "permutation") ||
      (n > 1 && !expect(CheckPermutation(repeated, n, &ignored), false,
                        "permutation (repeated index)"))) {
    return false;
  }
  return true;
}

}  // namespace servebench
