#include "models.h"

#include <utility>
#include <vector>

#include "core/aw_moe.h"
#include "core/trainer.h"
#include "models/listwise/listwise_reranker.h"
#include "util/check.h"

namespace servebench {

namespace {

/// AW-MoE's temperature, and the reranker's: with 1/4 a trained
/// reranker's logits still reach 9.5 on 9,600 rows of 40 seeds.
constexpr float kAwMoeTemperature = 0.25f;
constexpr float kRerankerTemperature = 0.125f;

void TrainOneEpoch(awmoe::Ranker* model, const Population& population,
                   bool contrastive, uint64_t seed) {
  awmoe::TrainerConfig config;
  config.epochs = 1;
  config.contrastive = contrastive;
  config.seed = seed;
  awmoe::Trainer(model, config)
      .Train(population.train(), population.meta(),
             population.standardizer());
}

/// Scales the Linear layer whose weight is params[i] (and its bias,
/// params[i + 1]); the weight must be [rows, 1].
void ScaleOutputLayer(std::vector<awmoe::Var>* params, size_t i,
                      int64_t rows, float temperature) {
  AWMOE_CHECK(i + 1 < params->size()) << "ScaleOutputLayer: no bias";
  awmoe::Matrix& weight = (*params)[i].mutable_value();
  awmoe::Matrix& bias = (*params)[i + 1].mutable_value();
  AWMOE_CHECK(weight.rows() == rows && weight.cols() == 1 &&
              bias.size() == 1)
      << "ScaleOutputLayer: weight " << weight.rows() << "x" << weight.cols();
  for (int64_t j = 0; j < weight.size(); ++j) weight.data()[j] *= temperature;
  bias.data()[0] *= temperature;
}

}  // namespace

std::unique_ptr<awmoe::Ranker> TrainedAwMoe(const Population& population,
                                            const awmoe::ModelDims& dims,
                                            uint64_t seed) {
  awmoe::Rng rng(seed);
  awmoe::AwMoeConfig config;
  config.dims = dims;
  config.name = "AW-MoE & CL";
  auto model =
      std::make_unique<awmoe::AwMoeRanker>(population.meta(), config, &rng);
  TrainOneEpoch(model.get(), population, /*contrastive=*/true, seed);
  // The experts' output layers are the only [expert.back(), 1] weights:
  // the activation units end in [activation_unit.back(), 1], the gate
  // unit in K columns and the towers in hidden_dim columns.
  std::vector<awmoe::Var> params = model->Parameters();
  int scaled = 0;
  for (size_t i = 0; i + 1 < params.size(); ++i) {
    const awmoe::Matrix& w = params[i].value();
    if (w.cols() == 1 && w.rows() == dims.expert.back()) {
      ScaleOutputLayer(&params, i, dims.expert.back(), kAwMoeTemperature);
      ++scaled;
    }
  }
  AWMOE_CHECK(scaled == dims.num_experts)
      << "TrainedAwMoe: scaled " << scaled << " expert output layers";
  return model;
}

std::unique_ptr<awmoe::Ranker> TrainedReranker(const Population& population,
                                               const awmoe::ModelDims& dims,
                                               uint64_t seed) {
  awmoe::Rng rng(seed);
  const awmoe::ListwiseDims ldims;
  auto model = std::make_unique<awmoe::ListwiseReranker>(population.meta(),
                                                         dims, ldims, &rng);
  TrainOneEpoch(model.get(), population, /*contrastive=*/false, seed);
  // The scoring head's output layer is the last weight/bias pair.
  std::vector<awmoe::Var> params = model->Parameters();
  AWMOE_CHECK(params.size() >= 2) << "TrainedReranker: no head";
  ScaleOutputLayer(&params, params.size() - 2, ldims.head_hidden.back(),
                   kRerankerTemperature);
  return model;
}

}  // namespace servebench
