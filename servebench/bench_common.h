// Shared pieces of the serving benchmark: command line, clocks, latency
// summaries, the metric/result JSON line, and the synthetic user
// population that every workload draws its requests from.

#ifndef SERVEBENCH_BENCH_COMMON_H_
#define SERVEBENCH_BENCH_COMMON_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/batcher.h"
#include "data/example.h"
#include "util/rng.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the result and trace files.
  std::string out_dir = ".bench_out";
};

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
/// [--out_dir <dir>]`. Returns false with `error` set on bad input.
bool ParseRunOptions(int argc, char** argv, RunOptions* options,
                     std::string* error);

double MillisBetween(Clock::time_point from, Clock::time_point to);

/// The process's peak resident set so far, in MB (10^6 bytes).
double PeakRssMb();

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// num / den, or 0 when den is 0.
double Ratio(int64_t num, int64_t den);

/// Median and 99th percentile of a latency sample. The 99th percentile
/// is only `supported` when at least ten samples lie beyond it, i.e.
/// with at least 1000 samples.
struct LatencySummary {
  int64_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
};
LatencySummary Summarize(std::vector<double> values);

/// One request's latency and when it completed (seconds into the phase).
struct TimedLatency {
  double at_s = 0.0;
  double ms = 0.0;
};

/// Windowed percentiles: the samples, in completion order, are cut into
/// consecutive windows of at least 1000 (at most 10 windows), each
/// window's median and 99th percentile are taken (each window has at
/// least ten samples beyond its 99th percentile), and the reported
/// figures are the medians over the windows, so one stalled second of
/// the machine moves them less than a pooled percentile. With fewer
/// than 1000 samples there is one window and no supported p99.
LatencySummary SummarizeWindows(std::vector<TimedLatency> samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The single-line result object the benchmark prints last.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

class Tracer;

/// Ends a run: in a traced run writes the trace to
/// `<out_dir>/trace_<workload>.json` (a failed write makes the run
/// incorrect), prints `why` when the run is incorrect, then the result
/// line. Returns the process exit code.
int Report(const RunOptions& options, const Tracer& tracer, bool correct,
           const std::string& why, int64_t attempted, int64_t failed,
           const std::vector<Metric>& metrics);

/// Spans of the traced run, kept in memory and written out as Chrome
/// trace-event JSON. Each span has a name, start, end, parent span and
/// request id; `Add` is a no-op when tracing is off.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  double NowUs() const;
  /// Returns the span's id (its parent argument for child spans), or
  /// -1 when tracing is off or the span budget is used up.
  int64_t Add(const char* name, double start_us, double end_us,
              int64_t parent, int64_t request);
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;
    int64_t request;
  };
  static constexpr size_t kMaxSpans = 600000;
  const bool enabled_;
  const Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Moves the calling thread round the CPUs the process may run on and
/// restores its CPU mask when destroyed. On the 4-vCPU VM of the
/// README's reference figures, one busy thread sometimes ran a whole
/// run at about 0.6 of its usual speed (fresh_pages' closed loop read
/// 10.0k against 16.3k to 18.0k req/s; paper_rerank's p50 5.2 against
/// 3.1 to 4.3 ms), as if its vCPU were slower; a closed loop that moves
/// its caller to the next CPU every slice and reports the median over
/// slices does not inherit one vCPU's speed.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to CPU `step` mod the number of CPUs.
  void Pin(int64_t step);

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// What a request is, relative to the user's earlier requests.
enum class PageKind { kFirst, kFresh, kFreshGrown, kReplay };

/// The traffic shape of one workload.
struct TrafficMix {
  int64_t candidates = 12;
  /// Probability that a returning user replays their previous request
  /// verbatim (same candidates, unchanged history).
  double repeat_share = 0.0;
  /// Probability that a returning user on a fresh page first gains one
  /// behaviour in their history.
  double growth_share = 0.0;
};

struct RequestInfo {
  int64_t user = 0;
  int64_t page = 0;
  PageKind kind = PageKind::kFirst;
};

/// Zipf-popular users over a JD-style synthetic corpus. A user's fixed
/// profile (behaviour history, query, age) is one corpus impression; a
/// page is a run of candidate rows taken from the corpus. Page `k` of
/// user `u` covers rows [base_u + k*n, base_u + (k+1)*n), and row r is
/// corpus impression r mod C with its item-age feature advanced by
/// 0.001 per full pass over the corpus, so rows are distinct for every
/// r and a user's pages never repeat a candidate set.
///
/// `Next` is thread-safe; the per-user page counters and grown
/// histories live behind one mutex.
class Population {
 public:
  Population(uint64_t seed, int64_t num_users, double zipf_exponent);

  const awmoe::DatasetMeta& meta() const { return meta_; }
  const awmoe::Standardizer* standardizer() const { return &standardizer_; }
  /// The labelled sessions the served models are trained on (disjoint
  /// from the corpus the pages come from).
  const std::vector<awmoe::Example>& train() const { return train_; }

  /// Draws the next request: a Zipf user, then (for returning users)
  /// replay / grow / fresh per `mix`, and writes its candidates into
  /// `out` (resized to mix.candidates, storage reused).
  RequestInfo Next(awmoe::Rng* rng, const TrafficMix& mix,
                   std::vector<awmoe::Example>* out);

  static int64_t SessionId(int64_t user);

 private:
  struct UserState {
    int64_t pages = 0;      // Fresh pages served so far.
    int64_t last_page = 0;  // Page of the previous request.
    bool grown = false;     // `history` overrides the corpus profile.
    awmoe::Example history;  // Behaviour fields only.
  };

  const awmoe::Example& Profile(int64_t user) const;
  void FillPageLocked(int64_t user, int64_t page, int64_t candidates,
                      std::vector<awmoe::Example>* out) const;
  void GrowLocked(int64_t user, UserState* state, int64_t candidates);

  awmoe::DatasetMeta meta_;
  awmoe::Standardizer standardizer_;
  std::vector<awmoe::Example> train_;
  std::vector<awmoe::Example> corpus_;
  uint64_t seed_;
  awmoe::ZipfDistribution zipf_;

  mutable std::mutex mu_;
  std::unordered_map<int64_t, UserState> users_;
};

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_COMMON_H_
