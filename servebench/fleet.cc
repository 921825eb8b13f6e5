// fresh_pages and repeat_pages: a 2-shard ShardedServingFleet over the
// quarter-scale AW-MoE-CL ranker. After a fixed warm-up, a closed loop
// (one caller on the synchronous front) runs for half of --seconds and
// gives throughput_rps; an open loop (Poisson arrivals at a fixed rate
// through Submit, one collector thread per shard) runs for the other
// half and gives the latency percentiles. Outputs are checked
// afterwards.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "checks.h"
#include "models.h"
#include "nn/inference.h"
#include "probes.h"
#include "serving/shard.h"
#include "workloads.h"

namespace servebench {
namespace {

using awmoe::Example;
using awmoe::RankRequest;
using awmoe::RankResponse;

constexpr char kModel[] = "aw-moe-cl";
constexpr int kShards = 2;

struct FleetSpec {
  TrafficMix mix;
  double open_rate_rps = 3000;  // Open-loop Poisson arrival rate.
  int64_t batch_cap = 96;       // Async flush cap, in candidates.
  int swaps_per_phase = 0;      // UpdateModel hot swaps in each phase.
  int64_t warmup_requests = 2000;      // Synchronous, one at a time.
  int64_t warmup_async_requests = 20000;
};

FleetSpec SpecFor(const std::string& name) {
  FleetSpec spec;
  if (name == "fresh_pages") {
    spec.mix = TrafficMix{12, 0.0, 0.1};
  } else {
    spec.mix = TrafficMix{48, 0.8, 0.0};
    spec.swaps_per_phase = 2;
  }
  return spec;
}

enum Phase { kWarmup = 0, kClosed = 1, kOpen = 2 };

/// A response kept for the checks after the timed phases.
struct Sample {
  std::vector<Example> items;
  RankResponse response;
};

class FleetBench {
 public:
  FleetBench(const RunOptions& options, Clock::time_point process_start)
      : options_(options),
        spec_(SpecFor(options.workload)),
        process_start_(process_start),
        tracer_(options.trace),
        population_(options.seed, 50000, 1.0) {}

  int Run();

 private:
  std::future<RankResponse> SubmitTraced(RankRequest request, int64_t id,
                                         double* submit_us) {
    const double t0 = tracer_.NowUs();
    std::future<RankResponse> future = fleet_->Submit(std::move(request));
    const double t1 = tracer_.NowUs();
    *submit_us = t1 - t0;
    tracer_.Add("serving.fleet.Submit", t0, t1, -1, id);
    return future;
  }

  static RankRequest RequestFor(const std::vector<Example>& items) {
    RankRequest request;
    request.session_id = items[0].session_id;
    request.model = kModel;
    for (const Example& ex : items) request.items.push_back(&ex);
    return request;
  }

  void Finish(const std::vector<Example>& items, RankResponse response);
  double ClosedLoop(double seconds, uint64_t stream, int64_t limit);
  void WarmAsync(int64_t requests);
  void OpenLoop(double seconds);
  std::thread StartSwaps(double seconds);
  bool CheckOutputs(std::string* why);
  std::vector<double> Recompute(const Sample& sample);

  RunOptions options_;
  FleetSpec spec_;
  Clock::time_point process_start_;
  Tracer tracer_;
  Population population_;
  std::unique_ptr<awmoe::ShardedServingFleet> fleet_;
  std::vector<std::unique_ptr<awmoe::Ranker>> refs_;  // By version - 1.
  std::vector<std::unique_ptr<awmoe::Ranker>> next_models_;
  std::atomic<int> phase_{kWarmup};

  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> ok_{0};
  std::atomic<int64_t> failed_{0};
  // Written by the collectors and the swap thread.
  std::mutex mu_;
  int64_t bad_outputs_ = 0;
  std::string first_bad_;
  int64_t seen_ = 0;
  int64_t hits_seen_ = 0;
  std::vector<Sample> samples_;
  std::vector<Sample> hit_samples_;
  std::vector<double> queue_ms_;
  std::vector<double> publish_ms_;
  // Written by the main (generator) thread alone.
  std::vector<double> submit_us_;
  std::vector<TimedLatency> latency_;
  std::vector<double> lateness_ms_;
};

void FleetBench::Finish(const std::vector<Example>& items,
                        RankResponse response) {
  std::string why;
  const bool well_formed = CheckWellFormed(response, items.size(), &why);
  if (!response.status.ok()) {
    failed_.fetch_add(1);
    return;
  }
  ok_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (!well_formed) {
    if (bad_outputs_++ == 0) {
      first_bad_ =
          why + " (version " + std::to_string(response.model_version) + ")";
    }
    return;
  }
  if (phase_.load() == kOpen) queue_ms_.push_back(response.queue_ms);
  if (response.score_cache_hit) {
    if ((hits_seen_++ % 7) == 0 && hit_samples_.size() < 128) {
      hit_samples_.push_back(Sample{items, response});
    }
  }
  if ((seen_++ % 97) == 0 && samples_.size() < 256) {
    samples_.push_back(Sample{items, std::move(response)});
  }
}

/// Closed loop: one caller ranks one request at a time through the
/// fleet's synchronous front (route, then the shard engine's forward in
/// the caller's thread), `limit` requests or until `seconds` pass. The
/// caller moves to the next CPU every slice (see CpuRotation). Returns
/// the median completion rate over ten equal slices.
///
/// The asynchronous front under a fixed in-flight window (one generator
/// thread, two flush lanes) was tried first and could not be held
/// steady: on one build and seed its per-slice rate sat for seconds at
/// a time at about 0.4, 0.7 or 1.0 of its peak, and whole runs read
/// 19k to 46k req/s. The synchronous front from one caller read 17.0k
/// to 18.0k. The open loop still goes through Submit.
double FleetBench::ClosedLoop(double seconds, uint64_t stream,
                              int64_t limit) {
  awmoe::Rng rng(options_.seed * 1000003 + stream);
  std::vector<Example> page;
  constexpr int kSlices = 10;
  const Clock::time_point start = Clock::now();
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kSlices));
  const Clock::time_point end = start + kSlices * slice;
  std::vector<int64_t> per_slice(kSlices, 0);
  CpuRotation rotation;
  int64_t slice_now = -1;
  for (int64_t id = 0; id < limit; ++id) {
    const int64_t current = (Clock::now() - start) / slice;
    if (current != slice_now) rotation.Pin(slice_now = current);
    population_.Next(&rng, spec_.mix, &page);
    attempted_.fetch_add(1);
    const double t0 = tracer_.NowUs();
    RankResponse response = fleet_->Rank(RequestFor(page));
    const double t1 = tracer_.NowUs();
    tracer_.Add("serving.fleet.Rank", t0, t1, -1, id);
    Finish(page, std::move(response));
    const Clock::time_point now = Clock::now();
    if (now >= end) break;
    ++per_slice[std::min<int64_t>(kSlices - 1, (now - start) / slice)];
  }
  std::vector<double> rates;
  for (int64_t n : per_slice) {
    rates.push_back(static_cast<double>(n) * kSlices / seconds);
  }
  return Median(rates);
}

/// Warms the asynchronous front: `requests` through Submit with
/// kWindow in flight, refilled in submission order. With only the
/// synchronous warm-up before it, the open loop's p99 on fresh_pages
/// read 3.2 to 5.1 ms over ten seeds; after this it read 2.76 to 2.81
/// over five.
void FleetBench::WarmAsync(int64_t requests) {
  constexpr int64_t kWindow = 64;
  awmoe::Rng rng(options_.seed * 1000003 + 5);
  std::vector<std::vector<Example>> pages(kWindow);
  std::vector<std::future<RankResponse>> futures(kWindow);
  double submit_us = 0.0;
  for (int64_t i = 0; i < requests + kWindow; ++i) {
    const size_t slot = static_cast<size_t>(i % kWindow);
    if (futures[slot].valid()) Finish(pages[slot], futures[slot].get());
    if (i >= requests) continue;
    population_.Next(&rng, spec_.mix, &pages[slot]);
    attempted_.fetch_add(1);
    futures[slot] = SubmitTraced(RequestFor(pages[slot]), -1, &submit_us);
  }
}

/// Hot swaps at evenly spaced points of a phase.
std::thread FleetBench::StartSwaps(double seconds) {
  if (spec_.swaps_per_phase == 0) return std::thread();
  std::vector<std::unique_ptr<awmoe::Ranker>> models;
  for (int i = 0; i < spec_.swaps_per_phase && !next_models_.empty(); ++i) {
    models.push_back(std::move(next_models_.front()));
    next_models_.erase(next_models_.begin());
  }
  return std::thread([this, seconds, models = std::move(models)]() mutable {
    const Clock::time_point start = Clock::now();
    const double step = seconds / static_cast<double>(models.size() + 1);
    for (size_t i = 0; i < models.size(); ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(step * (i + 1))));
      const double t0 = tracer_.NowUs();
      fleet_->UpdateModel(kModel, std::move(models[i]));
      const double t1 = tracer_.NowUs();
      tracer_.Add("serving.fleet.UpdateModel", t0, t1, -1, -1);
      std::lock_guard<std::mutex> lock(mu_);
      publish_ms_.push_back((t1 - t0) / 1e3);
    }
  });
}

/// Open loop: Poisson arrivals at the fixed rate; latency is timed from
/// each request's due time to its completion as observed by the
/// collector of the request's shard (each shard has one flush lane, so
/// its responses complete in submission order).
void FleetBench::OpenLoop(double seconds) {
  struct Pending {
    std::future<RankResponse> future;
    Clock::time_point due;
    size_t slot;
  };
  struct Collector {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool done = false;
    std::vector<TimedLatency> latency;
  };
  constexpr size_t kSlots = 4096;
  std::vector<std::vector<Example>> storage(kSlots);
  std::vector<std::atomic<bool>> busy(kSlots);
  std::vector<Collector> collectors(kShards);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < kShards; ++c) {
    threads.emplace_back([&, c] {
      Collector& col = collectors[c];
      for (;;) {
        Pending pending;
        {
          std::unique_lock<std::mutex> lock(col.mu);
          col.cv.wait(lock, [&] { return col.done || !col.queue.empty(); });
          if (col.queue.empty()) return;
          pending = std::move(col.queue.front());
          col.queue.pop_front();
        }
        RankResponse response = pending.future.get();
        const Clock::time_point done = Clock::now();
        col.latency.push_back({MillisBetween(start, done) / 1e3,
                               MillisBetween(pending.due, done)});
        Finish(storage[pending.slot], std::move(response));
        busy[pending.slot].store(false, std::memory_order_release);
      }
    });
  }
  awmoe::Rng rng(options_.seed * 1000003 + 7);
  double t = 0.0;
  for (int64_t id = 0;; ++id) {
    t += rng.Exponential(spec_.open_rate_rps);
    if (t >= seconds) break;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(t));
    std::this_thread::sleep_until(due);
    const size_t slot = static_cast<size_t>(id) % kSlots;
    while (busy[slot].load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    busy[slot].store(true);
    attempted_.fetch_add(1);
    population_.Next(&rng, spec_.mix, &storage[slot]);
    RankRequest request = RequestFor(storage[slot]);
    const int shard = fleet_->ShardForSession(request.session_id);
    lateness_ms_.push_back(MillisBetween(due, Clock::now()));
    double submit_us = 0.0;
    std::future<RankResponse> future =
        SubmitTraced(std::move(request), id, &submit_us);
    submit_us_.push_back(submit_us);
    Collector& col = collectors[static_cast<size_t>(shard) % kShards];
    {
      std::lock_guard<std::mutex> lock(col.mu);
      col.queue.push_back(Pending{std::move(future), due, slot});
    }
    col.cv.notify_one();
  }
  for (Collector& col : collectors) {
    {
      std::lock_guard<std::mutex> lock(col.mu);
      col.done = true;
    }
    col.cv.notify_one();
  }
  for (std::thread& thread : threads) thread.join();
  for (Collector& col : collectors) {
    latency_.insert(latency_.end(), col.latency.begin(), col.latency.end());
  }
}

/// The scores a level-1 hit should repeat: the named version's
/// ScoreInto over the request's candidates, through the active tier's
/// sigmoid, as the engine computes a miss.
std::vector<double> FleetBench::Recompute(const Sample& sample) {
  std::vector<const Example*> items;
  for (const Example& ex : sample.items) items.push_back(&ex);
  const awmoe::Batch batch = awmoe::CollateBatch(
      items, population_.meta(), population_.standardizer());
  awmoe::Ranker* model =
      refs_[static_cast<size_t>(sample.response.model_version - 1)].get();
  auto workspace = model->CreateInferenceWorkspace(batch.size);
  std::vector<float> scores(items.size());
  model->ScoreInto(batch, nullptr, workspace.get(), scores);
  awmoe::SigmoidSpanInto(scores, scores);
  return std::vector<double>(scores.begin(), scores.end());
}

bool FleetBench::CheckOutputs(std::string* why) {
  if (bad_outputs_ != 0) {
    *why = std::to_string(bad_outputs_) + " malformed responses, first: " +
           first_bad_;
    return false;
  }
  // The benchmark's own OK count against the shards' request counters.
  const awmoe::FleetStats stats = fleet_->Stats();
  int64_t shard_requests = 0;
  for (const awmoe::ShardStatsSnapshot& shard : stats.shards) {
    shard_requests += shard.engine.requests;
  }
  if (!CheckCount(ok_.load(), shard_requests, why)) return false;
  // Sampled responses against sigmoid(InferenceLogits) of the version
  // the response names.
  const auto logits_of = [&](const Sample& sample, int64_t version) {
    std::vector<const Example*> items;
    for (const Example& ex : sample.items) items.push_back(&ex);
    const awmoe::Batch batch = awmoe::CollateBatch(
        items, population_.meta(), population_.standardizer());
    return refs_[static_cast<size_t>(version - 1)]->InferenceLogits(batch);
  };
  for (const Sample& sample : samples_) {
    const int64_t version = sample.response.model_version;
    if (version < 1 || version > static_cast<int64_t>(refs_.size())) {
      *why = "unknown model version " + std::to_string(version);
      return false;
    }
    if (!CheckAgainstLogits(sample.response.scores,
                            logits_of(sample, version), why)) {
      *why += " (version " + std::to_string(version) + ")";
      return false;
    }
  }
  // Level-1 hits against a recompute, bitwise.
  for (const Sample& sample : hit_samples_) {
    if (!CheckBitwise(sample.response.scores, Recompute(sample),
                      "level-1 hit", why)) {
      return false;
    }
  }
  // Every check must reject a wrong input. The wrong version is one
  // more training run from another seed.
  if (samples_.empty()) {
    *why = "no sampled responses";
    return false;
  }
  const Sample& sample = samples_.front();
  const int64_t version = sample.response.model_version;
  refs_.push_back(TrainedAwMoe(population_, awmoe::ModelDims::Default(),
                               options_.seed * 31 + 97));
  SelfTestInput input;
  input.response = sample.response;
  input.own_logits = logits_of(sample, version);
  input.other_version_logits =
      logits_of(sample, static_cast<int64_t>(refs_.size()));
  input.ok_responses = ok_.load();
  input.served_requests = shard_requests;
  return SelfTest(input, why);
}

int FleetBench::Run() {
  // Version v is trained from seed * 31 + v. The benchmark keeps a copy
  // of each version for the reference checks.
  const int swaps = 2 * spec_.swaps_per_phase;
  for (int v = 1; v <= swaps + 1; ++v) {
    refs_.push_back(TrainedAwMoe(population_, awmoe::ModelDims::Default(),
                                 options_.seed * 31 +
                                     static_cast<uint64_t>(v)));
    if (v > 1) next_models_.push_back(refs_.back()->Clone());
  }
  awmoe::FleetOptions fleet_options;
  fleet_options.num_shards = kShards;
  fleet_options.engine.max_batch_items = spec_.batch_cap;
  fleet_options.engine.max_batch_candidates = spec_.batch_cap;
  fleet_options.engine.max_queue_delay_ms = 2.0;
  fleet_options.engine.async_flush_lanes = 1;
  // Admission runs on every Submit but never sheds.
  fleet_options.admission.default_deadline_ms = 1e6;
  fleet_ = std::make_unique<awmoe::ShardedServingFleet>(
      population_.meta(), population_.standardizer(), fleet_options);
  {
    const double t0 = tracer_.NowUs();
    fleet_->RegisterOwned(kModel, refs_.front()->Clone());
    const double t1 = tracer_.NowUs();
    tracer_.Add("serving.fleet.RegisterOwned", t0, t1, -1, -1);
    publish_ms_.push_back((t1 - t0) / 1e3);
  }
  ClosedLoop(60.0, /*stream=*/1, spec_.warmup_requests);  // Warm-up.
  WarmAsync(spec_.warmup_async_requests);
  const double setup_s = MillisBetween(process_start_, Clock::now()) / 1e3;

  const double phase = options_.seconds / 2.0;
  const awmoe::FleetStats before_closed = fleet_->Stats();
  phase_.store(kClosed);
  std::thread swapper = StartSwaps(phase);
  const double throughput = ClosedLoop(phase, /*stream=*/2, INT64_MAX);
  if (swapper.joinable()) swapper.join();
  const awmoe::FleetStats after_closed = fleet_->Stats();
  phase_.store(kOpen);
  swapper = StartSwaps(phase);
  OpenLoop(phase);
  if (swapper.joinable()) swapper.join();
  const awmoe::FleetStats after_open = fleet_->Stats();
  const double peak_rss_mb = PeakRssMb();
  fleet_->Stop();

  std::string why;
  bool correct = CheckOutputs(&why);
  const LatencySummary latency = SummarizeWindows(latency_);
  const LatencySummary lateness = Summarize(lateness_ms_);
  if (correct && !latency.p99_supported) {
    correct = false;
    why = "only " + std::to_string(latency.samples) +
          " open-loop samples; p99 needs 1000";
  }
  std::printf(
      "[servebench] %s seed=%llu tier=%s setup=%.3fs closed: %.0f req/s "
      "(median of 10 slices) open: %.0f req/s offered, %lld samples, p50 "
      "%.3f ms p99 %.3f ms, generator lateness p50 %.3f ms p99 %.3f ms, "
      "%zu level-1 hits recomputed\n",
      options_.workload.c_str(), static_cast<unsigned long long>(options_.seed),
      awmoe::KernelTierName(awmoe::ActiveKernelTier()), setup_s, throughput,
      spec_.open_rate_rps, static_cast<long long>(latency.samples),
      latency.p50, latency.p99, lateness.p50, lateness.p99,
      hit_samples_.size());

  std::vector<Metric> metrics;
  if (!options_.trace) {
    metrics = {{"setup_s", setup_s, "s"},
               {"throughput_rps", throughput, "1/s"},
               {"latency_p50_ms", latency.p50, "ms"},
               {"latency_p99_ms", latency.p99, "ms"},
               {"peak_rss_mb", peak_rss_mb, "MB"}};
    return Report(options_, tracer_, correct, why, attempted_.load(),
                  failed_.load(), metrics);
  }
  // Counter deltas of one phase, summed per shard (the merged snapshot's
  // cache counters are not used: MergeFrom adds reservoir sample counts
  // into them).
  struct Deltas {
    int64_t l1_hits = 0, l1_lookups = 0, gate_hits = 0, gate_lookups = 0,
            enc_hits = 0, enc_lookups = 0, batches = 0, batch_items = 0;
  };
  const auto deltas = [](const awmoe::FleetStats& before,
                         const awmoe::FleetStats& after) {
    Deltas d;
    for (size_t s = 0; s < after.shards.size(); ++s) {
      const awmoe::ServingStatsSnapshot& a = after.shards[s].engine;
      const awmoe::ServingStatsSnapshot& b = before.shards[s].engine;
      d.l1_hits += a.score_cache_hits - b.score_cache_hits;
      d.l1_lookups += a.score_cache_hits + a.score_cache_misses -
                      b.score_cache_hits - b.score_cache_misses;
      d.gate_hits += a.gate_cache_hits - b.gate_cache_hits;
      d.gate_lookups += a.gate_cache_hits + a.gate_cache_misses -
                        b.gate_cache_hits - b.gate_cache_misses;
      d.enc_hits += a.encoding_cache_hits - b.encoding_cache_hits;
      d.enc_lookups += a.encoding_cache_hits + a.encoding_cache_misses -
                       b.encoding_cache_hits - b.encoding_cache_misses;
      d.batches += a.batches - b.batches;
      d.batch_items += a.batch_items_total - b.batch_items_total;
    }
    return d;
  };
  const Deltas closed = deltas(before_closed, after_closed);
  const Deltas open = deltas(after_closed, after_open);
  int64_t cache_bytes = 0;
  for (const awmoe::ShardStatsSnapshot& shard : after_open.shards) {
    cache_bytes += shard.engine.score_cache_bytes +
                   shard.engine.encoding_cache_bytes +
                   shard.engine.gate_cache_bytes;
  }
  metrics = {
      {"trace.throughput_rps", throughput, "1/s"},
      {"serving.fleet.submit_us", Median(submit_us_), "us"},
      {"serving.engine.queue_ms", Mean(queue_ms_), "ms"},
      {"serving.engine.batch_items", Ratio(open.batch_items, open.batches),
       "count"},
      {"serving.model_pool.l1_hit_ratio",
       Ratio(closed.l1_hits, closed.l1_lookups), "ratio"},
      {"serving.model_pool.l1_lookups", static_cast<double>(closed.l1_lookups),
       "count"},
      {"serving.model_pool.gate_hit_ratio",
       Ratio(open.gate_hits, open.gate_lookups), "ratio"},
      {"serving.model_pool.gate_lookups", static_cast<double>(open.gate_lookups),
       "count"},
      {"serving.model_pool.encoding_hit_ratio",
       Ratio(open.enc_hits, open.enc_lookups), "ratio"},
      {"serving.model_pool.encoding_lookups",
       static_cast<double>(open.enc_lookups), "count"},
      {"serving.model_pool.cache_mb", static_cast<double>(cache_bytes) / 1e6,
       "MB"},
      {"serving.model_pool.publish_ms", Median(publish_ms_), "ms"},
  };
  // Layers outside the fleet, at this workload's scale: the model,
  // modules and kernels on one flush-cap micro-batch of pages, and the
  // rerank stage on a private engine.
  awmoe::Rng rng(options_.seed * 1000003 + 11);
  std::vector<Example> rows;
  std::vector<Example> page;
  const TrafficMix fresh{spec_.mix.candidates, 0.0, 0.0};
  while (static_cast<int64_t>(rows.size()) < spec_.batch_cap) {
    population_.Next(&rng, fresh, &page);
    rows.insert(rows.end(), page.begin(), page.end());
  }
  std::unique_ptr<awmoe::Ranker> reranker = TrainedReranker(
      population_, awmoe::ModelDims::Default(), options_.seed * 31 + 50);
  ProbeShape shape;
  shape.dims = awmoe::ModelDims::Default();
  shape.batch_rows = spec_.batch_cap;
  shape.session_rows = spec_.mix.candidates;
  RunLayerProbes(population_, shape, refs_.front().get(), reranker.get(),
                 rows, &tracer_, &metrics);
  const TwoStageTimes two_stage =
      ProbeTwoStage(&population_, refs_.front()->Clone(), std::move(reranker),
                    spec_.mix.candidates, options_.seed, 200, &tracer_);
  metrics.push_back(
      {"serving.two_stage.retrieve_ms", two_stage.retrieve_ms, "ms"});
  metrics.push_back({"serving.two_stage.rerank_ms", two_stage.rerank_ms, "ms"});
  return Report(options_, tracer_, correct, why, attempted_.load(),
                failed_.load(), metrics);
}

}  // namespace

int RunFleetWorkload(const RunOptions& options,
                     Clock::time_point process_start) {
  FleetBench bench(options, process_start);
  return bench.Run();
}

}  // namespace servebench
