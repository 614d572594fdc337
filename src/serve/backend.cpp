#include "serve/backend.hpp"

#include <utility>

namespace reads::serve {

void Backend::infer_batch_into(std::span<const Tensor> frames,
                               std::span<Tensor> outputs) {
  // Virtual dispatch through infer() keeps decorators (chaos wrapper) on
  // this path, once per frame.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    outputs[i] = infer(frames[i]);
  }
}

QuantizedBackend::QuantizedBackend(hls::FirmwareModel firmware)
    : model_(std::move(firmware)) {}

Tensor QuantizedBackend::infer(const Tensor& frame) {
  return model_.forward(frame);
}

void QuantizedBackend::infer_batch_into(std::span<const Tensor> frames,
                                        std::span<Tensor> outputs) {
  // Sequential on the replica's thread (replicas are one-per-core), writing
  // into the caller's reused output buffers instead of allocating a fresh
  // tensor per frame.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    model_.forward_into(frames[i], outputs[i]);
  }
}

}  // namespace reads::serve
