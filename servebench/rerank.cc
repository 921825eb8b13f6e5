// paper_rerank: the paper-scale AW-MoE-CL retriever scores 96
// candidates, and a listwise self-attention reranker re-scores the top
// 24 as one slate, through TwoStageRanker on one ServingEngine. Load
// comes from a closed loop of kCallers caller threads, each calling
// TwoStageRanker::Rank back to back for --seconds; the per-call times
// give throughput and latency. Outputs are checked afterwards.

#include <algorithm>
#include <atomic>
#include <cstdio>
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
#include "serving/model_pool.h"
#include "serving/serving_engine.h"
#include "serving/two_stage.h"
#include "workloads.h"

namespace servebench {

namespace {

using awmoe::Example;
using awmoe::RankRequest;
using awmoe::RankResponse;
using awmoe::TwoStageResult;

constexpr char kRetriever[] = "aw-moe-cl";
constexpr char kReranker[] = "listwise";
constexpr int64_t kCandidates = 96;
constexpr int64_t kTopK = 24;
/// One caller. With two callers on two replica lanes, throughput read
/// 385 to 507 calls/s over four runs of one build (one caller: 243 to
/// 273), too wide for the workload's bounds.
constexpr int kCallers = 1;
constexpr int64_t kWarmupCalls = 150;
const TrafficMix kMix{kCandidates, 0.0, 0.1};

/// A call kept for the checks after the timed phase.
struct Sample {
  std::vector<Example> items;
  TwoStageResult result;
};

RankRequest MakeRequest(const std::vector<Example>& storage) {
  RankRequest request;
  request.session_id = storage[0].session_id;
  for (const Example& ex : storage) request.items.push_back(&ex);
  return request;
}

/// The checks made on every call: both stages' scores well-formed, the
/// ranking a permutation of the candidates.
bool CheckCall(const TwoStageResult& result, size_t n, std::string* why) {
  if (!result.status.ok()) {
    *why = "two-stage status " + result.status.ToString();
    return false;
  }
  RankResponse stage;
  stage.scores = result.retrieval_scores;
  if (!CheckWellFormed(stage, n, why)) {
    *why = "retrieval: " + *why;
    return false;
  }
  stage.scores = result.rerank_scores;
  if (!CheckWellFormed(stage, std::min<size_t>(n, kTopK), why)) {
    *why = "rerank: " + *why;
    return false;
  }
  return CheckPermutation(result.ranking, n, why);
}

awmoe::Matrix LogitsOf(awmoe::Ranker* model, const Population& population,
                       const std::vector<const Example*>& items) {
  return model->InferenceLogits(awmoe::CollateBatch(
      items, population.meta(), population.standardizer()));
}

std::vector<const Example*> Pointers(const std::vector<Example>& items) {
  std::vector<const Example*> out;
  for (const Example& ex : items) out.push_back(&ex);
  return out;
}

std::vector<const Example*> SlateOf(const Sample& sample) {
  std::vector<const Example*> out;
  for (size_t idx : sample.result.slate) out.push_back(&sample.items[idx]);
  return out;
}

class RerankBench {
 public:
  RerankBench(const RunOptions& options, Clock::time_point process_start)
      : options_(options),
        process_start_(process_start),
        tracer_(options.trace),
        population_(options.seed, 50000, 1.0) {}

  int Run();

 private:
  /// kCallers threads calling TwoStageRanker::Rank for `seconds`
  /// (timed) or until kWarmupCalls calls are made (warm-up). Each caller
  /// moves to the next CPU every slice (see CpuRotation).
  void Callers(uint64_t stream, bool timed, double seconds);
  void Publish(const char* name, std::unique_ptr<awmoe::Ranker> model);
  bool CheckOutputs(std::string* why);
  void ProbeSubmit(std::vector<Metric>* metrics);

  RunOptions options_;
  Clock::time_point process_start_;
  Tracer tracer_;
  Population population_;
  std::unique_ptr<awmoe::Ranker> retriever_;  // Reference copies.
  std::unique_ptr<awmoe::Ranker> reranker_;
  std::unique_ptr<awmoe::ModelPool> pool_;
  std::unique_ptr<awmoe::ServingEngine> engine_;
  std::unique_ptr<awmoe::TwoStageRanker> two_stage_;
  std::vector<double> publish_ms_;

  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> ok_{0};
  std::atomic<int64_t> failed_{0};
  // Written by the caller threads.
  std::mutex mu_;
  int64_t bad_outputs_ = 0;
  std::string first_bad_;
  int64_t seen_ = 0;
  std::vector<Sample> samples_;
  std::vector<TimedLatency> latency_;
  std::vector<double> retrieve_ms_;
  std::vector<double> rerank_ms_;
  std::vector<int64_t> per_slice_;
};

void RerankBench::Publish(const char* name,
                          std::unique_ptr<awmoe::Ranker> model) {
  const double t0 = tracer_.NowUs();
  pool_->RegisterOwned(name, std::move(model));
  const double t1 = tracer_.NowUs();
  tracer_.Add("serving.ModelPool.RegisterOwned", t0, t1, -1, -1);
  publish_ms_.push_back((t1 - t0) / 1e3);
}

constexpr int kSlices = 10;

void RerankBench::Callers(uint64_t stream, bool timed, double seconds) {
  const Clock::time_point start = Clock::now();
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kSlices));
  const Clock::time_point end = start + kSlices * slice;
  std::atomic<int64_t> warm_calls{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      awmoe::Rng rng(options_.seed * 1000003 + stream * 16 +
                     static_cast<uint64_t>(c));
      std::vector<Example> storage;
      std::vector<TimedLatency> latency;
      std::vector<double> retrieve, rerank;
      std::vector<int64_t> per_slice(kSlices, 0);
      CpuRotation rotation;
      int64_t slice_now = -1;
      for (;;) {
        const int64_t current = timed ? (Clock::now() - start) / slice : 0;
        if (current != slice_now) rotation.Pin(c + (slice_now = current));
        if (timed ? Clock::now() >= end
                  : warm_calls.fetch_add(1) >= kWarmupCalls) {
          break;
        }
        population_.Next(&rng, kMix, &storage);
        const RankRequest request = MakeRequest(storage);
        attempted_.fetch_add(1);
        const double t0 = tracer_.NowUs();
        const Clock::time_point begin = Clock::now();
        TwoStageResult result = two_stage_->Rank(request);
        const Clock::time_point done = Clock::now();
        const double t1 = tracer_.NowUs();
        const int64_t id = tracer_.Add("serving.TwoStageRanker.Rank", t0, t1,
                                       -1, attempted_.load());
        // The stage spans come from the ranker's own per-stage timers.
        tracer_.Add("serving.two_stage.retrieve", t0,
                    t0 + result.retrieve_ms * 1e3, id, -1);
        tracer_.Add("serving.two_stage.rerank", t1 - result.rerank_ms * 1e3,
                    t1, id, -1);
        if (!result.status.ok()) {
          failed_.fetch_add(1);
          continue;
        }
        ok_.fetch_add(1);
        std::string why;
        const bool good = CheckCall(result, storage.size(), &why);
        if (timed && done < end) {
          latency.push_back({MillisBetween(start, done) / 1e3,
                             MillisBetween(begin, done)});
          retrieve.push_back(result.retrieve_ms);
          rerank.push_back(result.rerank_ms);
          ++per_slice[std::min<int64_t>(kSlices - 1, (done - start) / slice)];
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (!good) {
          if (bad_outputs_++ == 0) first_bad_ = why;
        } else if ((seen_++ % 31) == 0 && samples_.size() < 128) {
          samples_.push_back(Sample{storage, std::move(result)});
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      latency_.insert(latency_.end(), latency.begin(), latency.end());
      retrieve_ms_.insert(retrieve_ms_.end(), retrieve.begin(),
                          retrieve.end());
      rerank_ms_.insert(rerank_ms_.end(), rerank.begin(), rerank.end());
      if (per_slice_.empty()) per_slice_.assign(kSlices, 0);
      for (int s = 0; s < kSlices; ++s) per_slice_[s] += per_slice[s];
    });
  }
  for (std::thread& thread : threads) thread.join();
}

bool RerankBench::CheckOutputs(std::string* why) {
  if (bad_outputs_ != 0) {
    *why = std::to_string(bad_outputs_) + " malformed results, first: " +
           first_bad_;
    return false;
  }
  // Each two-stage call is two engine requests.
  const int64_t served = engine_->Stats().requests;
  if (!CheckCount(2 * ok_.load(), served, why)) return false;
  if (samples_.empty()) {
    *why = "no sampled calls";
    return false;
  }
  for (const Sample& sample : samples_) {
    // Stage 1 against the retriever's autograd-graph logits.
    if (!CheckAgainstLogits(
            sample.result.retrieval_scores,
            LogitsOf(retriever_.get(), population_, Pointers(sample.items)),
            why)) {
      *why = "retrieval: " + *why;
      return false;
    }
    // Stage 2 against a direct slate Rank of the same slate, bitwise,
    // and against the reranker's graph logits within tolerance.
    RankRequest direct;
    direct.session_id = sample.items[0].session_id;
    direct.model = kReranker;
    direct.items = SlateOf(sample);
    const RankResponse response = engine_->Rank(direct);
    if (!CheckBitwise(sample.result.rerank_scores, response.scores,
                      "rerank vs direct slate Rank", why)) {
      return false;
    }
    if (!CheckAgainstLogits(
            sample.result.rerank_scores,
            LogitsOf(reranker_.get(), population_, direct.items), why)) {
      *why = "rerank: " + *why;
      return false;
    }
  }
  // Every check must reject a wrong input. The wrong version is one
  // more training run from another seed.
  const Sample& sample = samples_.front();
  const std::unique_ptr<awmoe::Ranker> other = TrainedAwMoe(
      population_, awmoe::ModelDims::PaperScale(), options_.seed * 31 + 97);
  SelfTestInput input;
  input.response.scores = sample.result.retrieval_scores;
  input.own_logits =
      LogitsOf(retriever_.get(), population_, Pointers(sample.items));
  input.other_version_logits =
      LogitsOf(other.get(), population_, Pointers(sample.items));
  input.rerank_scores = sample.result.rerank_scores;
  input.ok_responses = 2 * ok_.load();
  input.served_requests = served;
  return SelfTest(input, why);
}

/// The async front of the same engine: a window of 4 retrieval
/// requests in flight for 300 requests; Submit's return time and each
/// response's queue wait.
void RerankBench::ProbeSubmit(std::vector<Metric>* metrics) {
  constexpr size_t kWindow = 4;
  constexpr int kRequests = 300;
  awmoe::Rng rng(options_.seed * 1000003 + 13);
  std::vector<std::vector<Example>> storage(kWindow);
  std::vector<std::future<RankResponse>> futures(kWindow);
  std::vector<double> submit_us, queue_ms;
  for (int i = 0; i < kRequests + static_cast<int>(kWindow); ++i) {
    const size_t slot = static_cast<size_t>(i) % kWindow;
    if (futures[slot].valid()) {
      const RankResponse response = futures[slot].get();
      queue_ms.push_back(response.queue_ms);
    }
    if (i >= kRequests) continue;
    population_.Next(&rng, kMix, &storage[slot]);
    RankRequest request = MakeRequest(storage[slot]);
    request.model = kRetriever;
    const double t0 = tracer_.NowUs();
    futures[slot] = engine_->Submit(std::move(request));
    const double t1 = tracer_.NowUs();
    tracer_.Add("serving.ServingEngine.Submit", t0, t1, -1, i);
    submit_us.push_back(t1 - t0);
  }
  metrics->push_back({"serving.fleet.submit_us", Median(submit_us), "us"});
  metrics->push_back({"serving.engine.queue_ms", Mean(queue_ms), "ms"});
}

int RerankBench::Run() {
  const awmoe::ModelDims dims = awmoe::ModelDims::PaperScale();
  retriever_ = TrainedAwMoe(population_, dims, options_.seed * 31 + 1);
  reranker_ = TrainedReranker(population_, dims, options_.seed * 31 + 2);
  // One replica lane per caller, so callers' forwards never queue on
  // one lane.
  awmoe::ModelPoolOptions pool_options;
  pool_options.replicas = kCallers;
  pool_ = std::make_unique<awmoe::ModelPool>(
      population_.meta(), population_.standardizer(), pool_options);
  Publish(kRetriever, retriever_->Clone());
  Publish(kReranker, reranker_->Clone());
  awmoe::ServingEngineOptions engine_options;
  engine_options.max_batch_candidates = kCandidates;
  engine_options.async_flush_lanes = 1;
  engine_ = std::make_unique<awmoe::ServingEngine>(pool_.get(),
                                                   engine_options);
  awmoe::TwoStageOptions two_stage_options;
  two_stage_options.retrieval_model = kRetriever;
  two_stage_options.rerank_model = kReranker;
  two_stage_options.top_k = kTopK;
  two_stage_ = std::make_unique<awmoe::TwoStageRanker>(engine_.get(),
                                                       two_stage_options);
  Callers(/*stream=*/1, /*timed=*/false, 0.0);  // Warm-up.
  const double setup_s = MillisBetween(process_start_, Clock::now()) / 1e3;

  const awmoe::ServingStatsSnapshot before = engine_->Stats();
  Callers(/*stream=*/2, /*timed=*/true, options_.seconds);
  const awmoe::ServingStatsSnapshot after = engine_->Stats();
  const double peak_rss_mb = PeakRssMb();

  std::string why;
  bool correct = CheckOutputs(&why);
  std::vector<double> rates;
  for (int64_t n : per_slice_) {
    rates.push_back(static_cast<double>(n) * kSlices / options_.seconds);
  }
  const double throughput = Median(rates);
  const LatencySummary latency = SummarizeWindows(latency_);
  if (correct && !latency.p99_supported) {
    correct = false;
    why = "only " + std::to_string(latency.samples) +
          " calls; p99 needs 1000";
  }
  std::printf(
      "[servebench] %s seed=%llu tier=%s setup=%.3fs closed (%d callers): "
      "%.1f calls/s (median of 10 slices), %lld calls, p50 %.3f ms p99 "
      "%.3f ms, retrieve p50 %.3f ms, rerank p50 %.3f ms, %zu calls "
      "checked against references\n",
      options_.workload.c_str(), static_cast<unsigned long long>(options_.seed),
      awmoe::KernelTierName(awmoe::ActiveKernelTier()), setup_s, kCallers,
      throughput, static_cast<long long>(latency.samples), latency.p50,
      latency.p99, Median(retrieve_ms_), Median(rerank_ms_),
      samples_.size());

  std::vector<Metric> metrics;
  if (!options_.trace) {
    metrics = {{"setup_s", setup_s, "s"},
               {"throughput_rps", throughput, "1/s"},
               {"latency_p50_ms", latency.p50, "ms"},
               {"latency_p99_ms", latency.p99, "ms"},
               {"peak_rss_mb", peak_rss_mb, "MB"}};
  } else {
    const int64_t l1_lookups = after.score_cache_hits +
                               after.score_cache_misses -
                               before.score_cache_hits -
                               before.score_cache_misses;
    const int64_t gate_lookups = after.gate_cache_hits +
                                 after.gate_cache_misses -
                                 before.gate_cache_hits -
                                 before.gate_cache_misses;
    const int64_t enc_lookups = after.encoding_cache_hits +
                                after.encoding_cache_misses -
                                before.encoding_cache_hits -
                                before.encoding_cache_misses;
    metrics = {
        {"trace.throughput_rps", throughput, "1/s"},
        {"serving.engine.batch_items",
         Ratio(after.batch_items_total - before.batch_items_total,
               after.batches - before.batches),
         "count"},
        {"serving.model_pool.l1_hit_ratio",
         Ratio(after.score_cache_hits - before.score_cache_hits, l1_lookups),
         "ratio"},
        {"serving.model_pool.l1_lookups", static_cast<double>(l1_lookups),
         "count"},
        {"serving.model_pool.gate_hit_ratio",
         Ratio(after.gate_cache_hits - before.gate_cache_hits, gate_lookups),
         "ratio"},
        {"serving.model_pool.gate_lookups", static_cast<double>(gate_lookups),
         "count"},
        {"serving.model_pool.encoding_hit_ratio",
         Ratio(after.encoding_cache_hits - before.encoding_cache_hits,
               enc_lookups),
         "ratio"},
        {"serving.model_pool.encoding_lookups",
         static_cast<double>(enc_lookups), "count"},
        {"serving.model_pool.cache_mb",
         static_cast<double>(after.score_cache_bytes +
                             after.encoding_cache_bytes +
                             after.gate_cache_bytes) /
             1e6,
         "MB"},
        {"serving.model_pool.publish_ms", Median(publish_ms_), "ms"},
        {"serving.two_stage.retrieve_ms", Median(retrieve_ms_), "ms"},
        {"serving.two_stage.rerank_ms", Median(rerank_ms_), "ms"},
    };
    ProbeSubmit(&metrics);
    awmoe::Rng rng(options_.seed * 1000003 + 11);
    std::vector<Example> rows;
    population_.Next(&rng, TrafficMix{kCandidates, 0.0, 0.0}, &rows);
    ProbeShape shape;
    shape.dims = dims;
    shape.batch_rows = kCandidates;
    shape.session_rows = kCandidates;
    shape.slate_rows = kTopK;
    RunLayerProbes(population_, shape, retriever_.get(), reranker_.get(),
                   rows, &tracer_, &metrics);
  }
  engine_->Stop();
  return Report(options_, tracer_, correct, why, attempted_.load(),
                failed_.load(), metrics);
}

}  // namespace

TwoStageTimes ProbeTwoStage(Population* population,
                            std::unique_ptr<awmoe::Ranker> retriever,
                            std::unique_ptr<awmoe::Ranker> reranker,
                            int64_t candidates, uint64_t seed, int calls,
                            Tracer* tracer) {
  awmoe::ModelPool pool(population->meta(), population->standardizer());
  pool.RegisterOwned(kRetriever, std::move(retriever));
  pool.RegisterOwned(kReranker, std::move(reranker));
  awmoe::ServingEngine engine(&pool);
  awmoe::TwoStageOptions options;
  options.retrieval_model = kRetriever;
  options.rerank_model = kReranker;
  options.top_k = std::min(kTopK, candidates);
  awmoe::TwoStageRanker two_stage(&engine, options);
  awmoe::Rng rng(seed * 1000003 + 17);
  std::vector<Example> storage;
  std::vector<double> retrieve, rerank;
  for (int i = 0; i < calls; ++i) {
    population->Next(&rng, TrafficMix{candidates, 0.0, 0.0}, &storage);
    const double t0 = tracer->NowUs();
    const TwoStageResult result = two_stage.Rank(MakeRequest(storage));
    const double t1 = tracer->NowUs();
    const int64_t id =
        tracer->Add("serving.TwoStageRanker.Rank", t0, t1, -1, i);
    tracer->Add("serving.two_stage.retrieve", t0,
                t0 + result.retrieve_ms * 1e3, id, -1);
    tracer->Add("serving.two_stage.rerank", t1 - result.rerank_ms * 1e3, t1,
                id, -1);
    retrieve.push_back(result.retrieve_ms);
    rerank.push_back(result.rerank_ms);
  }
  engine.Stop();
  return TwoStageTimes{Median(retrieve), Median(rerank)};
}

int RunRerankWorkload(const RunOptions& options,
                      Clock::time_point process_start) {
  RerankBench bench(options, process_start);
  return bench.Run();
}

}  // namespace servebench
