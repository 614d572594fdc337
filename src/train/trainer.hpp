// Mini-batch trainer: forward/backward per sample, gradients reduced across
// worker shards, one optimizer step per batch. Deterministic for a fixed
// seed and worker partitioning.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "nn/model.hpp"
#include "train/dataset.hpp"
#include "train/loss.hpp"
#include "train/optimizer.hpp"

namespace reads::train {

struct TrainConfig {
  std::size_t epochs = 10;
  std::size_t batch_size = 16;
  /// Every epoch reshuffles the dataset with shuffle_seed + epoch.
  std::uint64_t shuffle_seed = 1;
  /// Called after each epoch with (epoch index, mean training loss).
  std::function<void(std::size_t, double)> on_epoch;
  /// Called after every optimizer step (quantization-aware training hooks
  /// project weights here).
  std::function<void()> after_batch;
};

struct TrainResult {
  std::vector<double> epoch_loss;  ///< mean per-sample loss, one per epoch
  double final_loss() const { return epoch_loss.empty() ? 0.0 : epoch_loss.back(); }
};

class Trainer {
 public:
  Trainer(nn::Model& model, Loss& loss, Optimizer& optimizer);

  TrainResult fit(Dataset dataset, const TrainConfig& config);

  /// Mean loss over a dataset without updating parameters.
  double evaluate(const Dataset& dataset) const;

 private:
  double run_batch(const Dataset& data, std::size_t begin, std::size_t end);

  nn::Model& model_;
  Loss& loss_;
  Optimizer& optimizer_;
};

}  // namespace reads::train
