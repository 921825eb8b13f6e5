#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "data/jd_synthetic.h"
#include "util/hash.h"

namespace servebench {

using awmoe::Example;

bool ParseRunOptions(int argc, char** argv, RunOptions* options,
                     std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      options->trace = value == "1";
    } else if (flag == "--out_dir") {
      options->out_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      *error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  if (!(options->seconds > 0.0 && options->seconds <= 120.0)) {
    *error = "--seconds must be in (0, 120]";
    return false;
  }
  return true;
}

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB.
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

LatencySummary Summarize(std::vector<double> values) {
  LatencySummary summary;
  summary.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  // Nearest-rank percentiles.
  const auto rank = [&](double q) {
    const size_t r = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<size_t>(r, 1, values.size()) - 1];
  };
  summary.p50 = rank(0.50);
  summary.p99 = rank(0.99);
  summary.p99_supported = values.size() >= 1000;
  return summary;
}

LatencySummary SummarizeWindows(std::vector<TimedLatency> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const TimedLatency& a, const TimedLatency& b) {
              return a.at_s < b.at_s;
            });
  const size_t n = samples.size();
  const size_t windows = std::clamp<size_t>(n / 1000, 1, 10);
  std::vector<double> p50s, p99s;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> window;
    for (size_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
      window.push_back(samples[i].ms);
    }
    const LatencySummary s = Summarize(std::move(window));
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
  }
  LatencySummary summary;
  summary.samples = static_cast<int64_t>(n);
  summary.p50 = Median(p50s);
  summary.p99 = Median(p99s);
  summary.p99_supported = n >= 1000;
  return summary;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Pin(int64_t step) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[static_cast<size_t>(step) % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

int Report(const RunOptions& options, const Tracer& tracer, bool correct,
           const std::string& why, int64_t attempted, int64_t failed,
           const std::vector<Metric>& metrics) {
  std::string reason = why;
  if (tracer.enabled()) {
    std::error_code error;
    std::filesystem::create_directories(options.out_dir, error);
    const std::string path =
        options.out_dir + "/trace_" + options.workload + ".json";
    if (tracer.Write(path)) {
      std::printf("[servebench] trace written to %s\n", path.c_str());
    } else if (correct) {
      correct = false;
      reason = "cannot write " + path;
    }
  }
  if (!correct) std::printf("[servebench] CHECK FAILED: %s\n", reason.c_str());
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int64_t Tracer::Add(const char* name, double start_us, double end_us,
                    int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) return -1;
  spans_.push_back(Span{name, start_us, end_us, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[320];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %lld, \"request\": %lld}}%s\n",
                  s.name, s.start_us, s.end_us - s.start_us, i,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request),
                  i + 1 == spans_.size() ? "" : ",");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// Population.
// ---------------------------------------------------------------------

namespace {

awmoe::JdDataset GenerateCorpus(uint64_t seed) {
  awmoe::JdConfig config;
  config.train_sessions = 300;  // Standardizer fit and model training.
  config.test_sessions = 800;   // The corpus: 9600 impressions.
  config.longtail1_sessions = 10;
  config.longtail2_sessions = 10;
  config.seed = seed;
  return awmoe::JdSyntheticGenerator(config).Generate();
}

}  // namespace

Population::Population(uint64_t seed, int64_t num_users,
                       double zipf_exponent)
    : seed_(seed), zipf_(num_users, zipf_exponent) {
  awmoe::JdDataset data = GenerateCorpus(seed);
  meta_ = data.meta;
  standardizer_.Fit(data.train);
  train_ = std::move(data.train);
  corpus_ = std::move(data.full_test);
}

int64_t Population::SessionId(int64_t user) {
  return static_cast<int64_t>(awmoe::Mix64(static_cast<uint64_t>(user) + 1) >>
                              1);
}

const Example& Population::Profile(int64_t user) const {
  const uint64_t h = awmoe::Mix64(seed_ ^ (static_cast<uint64_t>(user) << 1));
  return corpus_[h % corpus_.size()];
}

RequestInfo Population::Next(awmoe::Rng* rng, const TrafficMix& mix,
                             std::vector<Example>* out) {
  RequestInfo info;
  info.user = zipf_.Sample(rng);
  // Both draws are made on every request, so the random stream does not
  // depend on which branch a request takes.
  const bool replay = rng->Uniform() < mix.repeat_share;
  const bool grow = rng->Uniform() < mix.growth_share;
  std::lock_guard<std::mutex> lock(mu_);
  UserState& state = users_[info.user];
  if (state.pages == 0) {
    info.kind = PageKind::kFirst;
    info.page = state.pages++;
  } else if (replay) {
    info.kind = PageKind::kReplay;
    info.page = state.last_page;
  } else {
    info.kind = grow ? PageKind::kFreshGrown : PageKind::kFresh;
    if (grow) GrowLocked(info.user, &state, mix.candidates);
    info.page = state.pages++;
  }
  state.last_page = info.page;
  FillPageLocked(info.user, info.page, mix.candidates, out);
  return info;
}

void Population::GrowLocked(int64_t user, UserState* state,
                            int64_t candidates) {
  if (!state->grown) {
    const Example& profile = Profile(user);
    state->history.behavior_items = profile.behavior_items;
    state->history.behavior_cats = profile.behavior_cats;
    state->history.behavior_brands = profile.behavior_brands;
    state->history.behavior_attrs = profile.behavior_attrs;
    state->grown = true;
  }
  // The new behaviour is the first candidate of the user's previous
  // page (most recent first), and the oldest one falls off the end.
  std::vector<Example> last;
  FillPageLocked(user, state->last_page, candidates, &last);
  Example& h = state->history;
  const Example& clicked = last[0];
  h.behavior_items.insert(h.behavior_items.begin(), clicked.target_item);
  h.behavior_cats.insert(h.behavior_cats.begin(), clicked.target_cat);
  h.behavior_brands.insert(h.behavior_brands.begin(), clicked.target_brand);
  h.behavior_attrs.insert(h.behavior_attrs.begin(), clicked.target_attrs,
                          clicked.target_attrs + Example::kItemAttrs);
  const size_t cap = static_cast<size_t>(meta_.max_seq_len);
  if (h.behavior_items.size() > cap) {
    h.behavior_items.resize(cap);
    h.behavior_cats.resize(cap);
    h.behavior_brands.resize(cap);
    h.behavior_attrs.resize(cap * Example::kItemAttrs);
  }
}

void Population::FillPageLocked(int64_t user, int64_t page,
                                int64_t candidates,
                                std::vector<Example>* out) const {
  const Example& profile = Profile(user);
  auto found = users_.find(user);
  const Example& history = found != users_.end() && found->second.grown
                               ? found->second.history
                               : profile;
  const int64_t corpus = static_cast<int64_t>(corpus_.size());
  const int64_t base = (user * 7919) % corpus;
  const int64_t session_id = SessionId(user);
  out->resize(static_cast<size_t>(candidates));
  for (int64_t j = 0; j < candidates; ++j) {
    Example& ex = (*out)[static_cast<size_t>(j)];
    const int64_t row = base + page * candidates + j;
    const Example& cand = corpus_[static_cast<size_t>(row % corpus)];
    ex.behavior_items.assign(history.behavior_items.begin(),
                             history.behavior_items.end());
    ex.behavior_cats.assign(history.behavior_cats.begin(),
                            history.behavior_cats.end());
    ex.behavior_brands.assign(history.behavior_brands.begin(),
                              history.behavior_brands.end());
    ex.behavior_attrs.assign(history.behavior_attrs.begin(),
                             history.behavior_attrs.end());
    ex.history_len = static_cast<int64_t>(history.behavior_items.size());
    ex.query_id = profile.query_id;
    ex.query_cat = profile.query_cat;
    ex.user_id = profile.user_id;
    ex.age_segment = profile.age_segment;
    ex.target_item = cand.target_item;
    ex.target_cat = cand.target_cat;
    ex.target_brand = cand.target_brand;
    ex.target_shop = cand.target_shop;
    for (int64_t c = 0; c < Example::kItemAttrs; ++c) {
      ex.target_attrs[c] = cand.target_attrs[c];
    }
    ex.numeric.assign(cand.numeric.begin(), cand.numeric.end());
    ex.numeric[awmoe::kFeatItemAge] +=
        0.001f * static_cast<float>(row / corpus);
    ex.label = cand.label;
    ex.session_id = session_id;
  }
}

}  // namespace servebench
