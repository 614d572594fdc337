// Inference backends a Replica can wrap.
//
// Each replica owns its backend outright (QuantizedBackend: its own weight
// copy, sigmoid tables and kernel plans), so replicas never share mutable
// state and scale without cross-replica synchronization. All backends are
// deterministic: infer() on the same frame always returns the same bits,
// and infer_batch_into() equals per-frame infer() (the gateway's
// bit-exactness guarantee reduces to this property).
//
// A replica serves every micro-batch through infer_batch_into() alone. Its
// default loops over infer(), so a decorator that overrides only infer()
// (the fault-injection wrapper) still sees every frame; QuantizedBackend
// overrides it to reuse the output buffers and stay allocation-free.
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "hls/firmware.hpp"
#include "hls/qmodel.hpp"
#include "tensor/tensor.hpp"

namespace reads::serve {

using tensor::Tensor;

class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string_view name() const noexcept = 0;

  /// One frame in, one output out. Must be deterministic and must not touch
  /// state shared with other Backend instances.
  virtual Tensor infer(const Tensor& frame) = 0;

  /// The micro-batch entry point, run on the calling (replica) thread:
  /// `outputs.size() == frames.size()`, outputs[i] bit-identical to
  /// infer(frames[i]). Default: `outputs[i] = infer(frames[i])`.
  virtual void infer_batch_into(std::span<const Tensor> frames,
                                std::span<Tensor> outputs);
};

/// The PR 1 blocked-kernel integer pipeline; the production serving path.
class QuantizedBackend final : public Backend {
 public:
  /// Takes its own copy of the firmware (weights, plans, tables).
  explicit QuantizedBackend(hls::FirmwareModel firmware);

  std::string_view name() const noexcept override { return "quantized"; }
  Tensor infer(const Tensor& frame) override;
  /// Zero heap allocations once `outputs` are warm: QuantizedModel::
  /// forward_into quantizes into the thread's scratch arena and writes the
  /// dequantized result into each output's reused storage.
  void infer_batch_into(std::span<const Tensor> frames,
                        std::span<Tensor> outputs) override;

  const hls::QuantizedModel& model() const noexcept { return model_; }

 private:
  hls::QuantizedModel model_;
};

}  // namespace reads::serve
