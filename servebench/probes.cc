#include "probes.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/gate_network.h"
#include "data/batcher.h"
#include "models/attention_unit.h"
#include "models/embedding_set.h"
#include "models/expert.h"
#include "models/input_network.h"
#include "nn/inference.h"

namespace servebench {

namespace {

using awmoe::Batch;
using awmoe::Example;
using awmoe::InferenceArena;
using awmoe::MatView;

/// Calls per probe: enough for a steady median, few enough that the
/// paper-scale probes stay within a second or two.
constexpr int kCalls = 200;
constexpr int kWarmCalls = 10;

/// Runs `call` kWarmCalls times untimed, then kCalls times, each call a
/// span named `name`; returns the median call time in microseconds.
template <typename Fn>
double TimeCalls(Tracer* tracer, const char* name, Fn&& call) {
  for (int i = 0; i < kWarmCalls; ++i) call();
  std::vector<double> us;
  us.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    const double t0 = tracer->NowUs();
    call();
    const double t1 = tracer->NowUs();
    tracer->Add(name, t0, t1, -1, i);
    us.push_back(t1 - t0);
  }
  return Median(std::move(us));
}

double MlpFlops(int64_t in, const std::vector<int64_t>& dims) {
  double flops = 0.0;
  for (int64_t out : dims) {
    flops += 2.0 * static_cast<double>(in) * static_cast<double>(out);
    in = out;
  }
  return flops;
}

std::vector<int64_t> With(std::vector<int64_t> dims, int64_t last) {
  dims.push_back(last);
  return dims;
}

/// Fills an arena view with a fixed pattern in (-1, 1).
MatView FilledView(InferenceArena* arena, int64_t rows, int64_t cols) {
  MatView view = arena->Alloc(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      view.row(r)[c] = static_cast<float>((r * 31 + c * 17) % 200) / 100.0f -
                       1.0f;
    }
  }
  return view;
}

double MatMulGflops(Tracer* tracer, const char* name, int64_t rows,
                    int64_t inner, int64_t cols) {
  InferenceArena arena;
  const MatView a = FilledView(&arena, rows, inner);
  awmoe::Matrix w(inner, cols);
  for (int64_t i = 0; i < w.size(); ++i) {
    w.data()[i] = static_cast<float>(i % 13) / 13.0f - 0.5f;
  }
  const MatView out = arena.Alloc(rows, cols);
  const double us =
      TimeCalls(tracer, name, [&] { awmoe::MatMulInto(a, w, out); });
  return 2.0 * static_cast<double>(rows * inner * cols) / (us * 1e3);
}

}  // namespace

double AwMoeFlopsPerCandidate(const awmoe::DatasetMeta& meta,
                              const awmoe::ModelDims& dims) {
  const int64_t e = dims.emb_dim;
  const int64_t h = dims.hidden_dim();
  const int64_t k = dims.num_experts;
  const double seq = static_cast<double>(meta.max_seq_len);
  const double item_tower =
      MlpFlops(3 * e + Example::kItemAttrs, dims.tower_mlp);
  const double query_tower = MlpFlops(e, dims.tower_mlp);
  const double other_tower =
      MlpFlops(2 * e + meta.numeric_dim, dims.tower_mlp);
  const double activation = MlpFlops(3 * h, With(dims.activation_unit, 1));
  const double gate_unit = MlpFlops(3 * h, With(dims.gate_unit, k));
  const double expert = MlpFlops(4 * h, With(dims.expert, 1));
  const double input_network = (seq + 1) * item_tower + query_tower +
                               other_tower + seq * activation;
  const double gate_network =
      seq * item_tower + query_tower + seq * (gate_unit + activation);
  return input_network + gate_network + static_cast<double>(k) * expert;
}

void RunLayerProbes(const Population& population, const ProbeShape& shape,
                    awmoe::Ranker* model, awmoe::Ranker* reranker,
                    const std::vector<Example>& rows, Tracer* tracer,
                    std::vector<Metric>* metrics) {
  const awmoe::DatasetMeta& meta = population.meta();
  const awmoe::Standardizer* standardizer = population.standardizer();
  const int64_t b = shape.batch_rows;
  const int64_t sessions = b / shape.session_rows;
  std::vector<const Example*> items;
  std::vector<const Example*> heads;  // One row per session.
  for (int64_t i = 0; i < b; ++i) {
    items.push_back(&rows[static_cast<size_t>(i)]);
    if (i % shape.session_rows == 0) heads.push_back(items.back());
  }

  // data: collating one micro-batch.
  Batch batch;
  const double collate_us = TimeCalls(tracer, "data.CollateBatch", [&] {
    batch = awmoe::CollateBatch(items, meta, standardizer);
  });
  const Batch head_batch = awmoe::CollateBatch(heads, meta, standardizer);

  // core: the AW-MoE entry points the serving engine calls.
  auto workspace = model->CreateInferenceWorkspace(b);
  const int64_t gate_width = model->SessionGateWidth();
  const int64_t enc_width = model->SessionEncodingWidth();
  std::vector<float> out(static_cast<size_t>(b));
  std::vector<float> gate_rows(static_cast<size_t>(b * gate_width));
  std::vector<float> enc_rows(static_cast<size_t>(b * enc_width));
  std::vector<float> gate_heads(static_cast<size_t>(sessions * gate_width));
  std::vector<float> enc_heads(static_cast<size_t>(sessions * enc_width));
  const double score_us = TimeCalls(tracer, "core.AwMoe.ScoreInto", [&] {
    model->ScoreInto(batch, nullptr, workspace.get(), out);
  });
  const double gate_us = TimeCalls(tracer, "core.AwMoe.GateInto", [&] {
    model->GateInto(head_batch, workspace.get(), gate_heads);
  });
  const double encode_us =
      TimeCalls(tracer, "core.AwMoe.EncodeSessionInto", [&] {
        model->EncodeSessionInto(head_batch, workspace.get(), enc_heads);
      });
  // The tail replays each session's gate and encoding row for every
  // candidate of the session, as the engine stages them.
  for (int64_t i = 0; i < b; ++i) {
    const int64_t s = i / shape.session_rows;
    std::copy_n(gate_heads.begin() + s * gate_width, gate_width,
                gate_rows.begin() + i * gate_width);
    std::copy_n(enc_heads.begin() + s * enc_width, enc_width,
                enc_rows.begin() + i * enc_width);
  }
  const awmoe::SessionGate gate{gate_rows.data(), b, gate_width};
  const awmoe::SessionEncoding encoding{enc_rows.data(), b, enc_width};
  const double tail_us =
      TimeCalls(tracer, "core.AwMoe.ScoreWithSessionInto", [&] {
        model->ScoreWithSessionInto(batch, &gate, &encoding, workspace.get(),
                                    out);
      });

  // models / core: standalone modules at the same dims, fresh weights.
  awmoe::Rng rng(17);
  const awmoe::ModelDims& dims = shape.dims;
  awmoe::EmbeddingSet embeddings(meta, dims.emb_dim, &rng);
  awmoe::InputNetwork input_network(meta, dims, &embeddings,
                                    awmoe::UserPooling::kAttention, &rng);
  awmoe::GateNetwork gate_network(meta, dims, &embeddings,
                                  awmoe::GateConfig{}, &rng);
  awmoe::ExpertBank experts(input_network.output_dim(), dims, &rng);
  awmoe::AttentionUnit attention(dims.hidden_dim(), dims.activation_unit,
                                 &rng);
  InferenceArena arena;
  InferenceArena io;
  const MatView v_imp = io.Alloc(b, input_network.output_dim());
  const MatView gate_out = io.Alloc(b, dims.num_experts);
  const MatView expert_out = io.Alloc(b, dims.num_experts);
  const MatView h_user = FilledView(&io, b, dims.hidden_dim());
  const MatView h_ref = FilledView(&io, b, dims.hidden_dim());
  const MatView att_out = io.Alloc(b, 1);
  const double input_us =
      TimeCalls(tracer, "models.InputNetwork.InferInto", [&] {
        arena.Reset();
        input_network.InferInto(batch, &arena, v_imp);
      });
  const double attention_us =
      TimeCalls(tracer, "models.AttentionUnit.InferInto", [&] {
        arena.Reset();
        attention.InferInto(h_user, h_ref, &arena, att_out);
      });
  const double gate_network_us =
      TimeCalls(tracer, "core.GateNetwork.InferInto", [&] {
        arena.Reset();
        gate_network.InferInto(batch, &arena, gate_out);
      });
  const double experts_us =
      TimeCalls(tracer, "models.ExpertBank.InferAllInto", [&] {
        arena.Reset();
        experts.InferAllInto(v_imp, &arena, expert_out);
      });

  // models.listwise: one slate through the reranker's workspace path.
  const int64_t slate = std::min<int64_t>(shape.slate_rows, b);
  const Batch slate_batch = awmoe::CollateBatch(
      std::vector<const Example*>(items.begin(), items.begin() + slate), meta,
      standardizer);
  const std::vector<int64_t> starts = {0};
  auto slate_workspace = reranker->CreateInferenceWorkspace(slate);
  std::vector<float> slate_out(static_cast<size_t>(slate));
  const double slate_us =
      TimeCalls(tracer, "models.Listwise.ScoreSlateInto", [&] {
        reranker->ScoreSlateInto(slate_batch, starts, slate_workspace.get(),
                                 slate_out);
      });

  // nn: the GEMM kernel at the paper expert shape and the gate shape.
  awmoe::Rng paper_rng(18);
  const awmoe::ModelDims paper = awmoe::ModelDims::PaperScale();
  awmoe::EmbeddingSet paper_embeddings(meta, paper.emb_dim, &paper_rng);
  const int64_t paper_in =
      awmoe::InputNetwork(meta, paper, &paper_embeddings,
                          awmoe::UserPooling::kAttention, &paper_rng)
          .output_dim();
  const double expert_gflops = MatMulGflops(
      tracer, "nn.MatMulInto.expert", 96, paper_in, paper.expert[0]);
  const double gate_gflops =
      MatMulGflops(tracer, "nn.MatMulInto.gate", 96, 16, 8);

  const double flops = AwMoeFlopsPerCandidate(meta, dims);
  const double per_candidate_us = score_us / static_cast<double>(b);
  metrics->insert(
      metrics->end(),
      {{"data.collate_us", collate_us, "us"},
       {"core.aw_moe.score_us", score_us, "us"},
       {"core.aw_moe.gate_us", gate_us, "us"},
       {"core.aw_moe.encode_us", encode_us, "us"},
       {"core.aw_moe.tail_us", tail_us, "us"},
       {"core.aw_moe.gflops", flops / (per_candidate_us * 1e3), "GFLOP/s"},
       {"models.input_network_us", input_us, "us"},
       {"models.attention_unit_us", attention_us, "us"},
       {"core.gate_network_us", gate_network_us, "us"},
       {"models.experts_us", experts_us, "us"},
       {"models.module_share", (input_us + gate_network_us + experts_us) /
                                   score_us,
        "ratio"},
       {"models.listwise.slate_us", slate_us, "us"},
       {"nn.matmul_gflops.expert", expert_gflops, "GFLOP/s"},
       {"nn.matmul_gflops.gate", gate_gflops, "GFLOP/s"}});
}

}  // namespace servebench
