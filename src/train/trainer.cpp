#include "train/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace reads::train {

Trainer::Trainer(nn::Model& model, Loss& loss, Optimizer& optimizer)
    : model_(model), loss_(loss), optimizer_(optimizer) {}

double Trainer::run_batch(const Dataset& data, std::size_t begin,
                          std::size_t end) {
  const std::size_t n = end - begin;
  auto& pool = util::ThreadPool::global();
  const std::size_t shards = std::min(n, pool.worker_count() + 1);
  const std::size_t per_shard = (n + shards - 1) / shards;

  const auto shapes = model_.parameter_shapes();
  std::vector<nn::GradStore> stores;
  stores.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) stores.emplace_back(shapes);
  std::vector<double> shard_loss(shards, 0.0);

  pool.parallel_for(0, shards, [&](std::size_t s) {
    const std::size_t lo = begin + s * per_shard;
    const std::size_t hi = std::min(end, lo + per_shard);
    Tensor grad_out;
    nn::Activations acts;  // reused across the shard's samples
    for (std::size_t i = lo; i < hi; ++i) {
      model_.forward_all_into(data.inputs[i], acts, /*training=*/true);
      shard_loss[s] += loss_.compute(acts.output(), data.targets[i], grad_out);
      model_.backward(acts, grad_out, stores[s]);
    }
  });

  for (std::size_t s = 1; s < shards; ++s) stores[0].add(stores[s]);
  stores[0].scale(1.0f / static_cast<float>(n));
  optimizer_.step(model_.parameters(), stores[0]);

  // Fold running statistics (BatchNorm) from one representative sample;
  // done sequentially so layers never see concurrent mutation.
  const auto acts = model_.forward_all(data.inputs[begin], /*training=*/true);
  model_.update_running_stats(acts);

  double total = 0.0;
  for (auto l : shard_loss) total += l;
  return total;
}

TrainResult Trainer::fit(Dataset dataset, const TrainConfig& config) {
  if (dataset.empty()) throw std::invalid_argument("Trainer: empty dataset");
  if (config.batch_size == 0) {
    throw std::invalid_argument("Trainer: batch_size must be positive");
  }
  TrainResult result;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    dataset.shuffle(config.shuffle_seed + epoch);
    double epoch_loss = 0.0;
    for (std::size_t b = 0; b < dataset.size(); b += config.batch_size) {
      const std::size_t e = std::min(dataset.size(), b + config.batch_size);
      epoch_loss += run_batch(dataset, b, e);
      if (config.after_batch) config.after_batch();
    }
    epoch_loss /= static_cast<double>(dataset.size());
    result.epoch_loss.push_back(epoch_loss);
    if (config.on_epoch) config.on_epoch(epoch, epoch_loss);
  }
  return result;
}

double Trainer::evaluate(const Dataset& dataset) const {
  if (dataset.empty()) return 0.0;
  std::atomic<double> total{0.0};
  util::parallel_for(0, dataset.size(), [&](std::size_t i) {
    Tensor grad;
    const Tensor pred = model_.forward(dataset.inputs[i]);
    const double l = loss_.compute(pred, dataset.targets[i], grad);
    double cur = total.load(std::memory_order_relaxed);
    while (!total.compare_exchange_weak(cur, cur + l,
                                        std::memory_order_relaxed)) {
    }
  });
  return total.load() / static_cast<double>(dataset.size());
}

}  // namespace reads::train
