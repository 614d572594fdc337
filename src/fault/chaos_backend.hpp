// ChaosBackend: a serve::Backend decorator that injects replica crashes.
//
// Wraps a real backend and overrides infer() only, which the default
// Backend::infer_batch_into (the replica's one batch entry point) calls once
// per frame. Before every frame it asks the shared Injector whether this
// replica's next backend op is scheduled to crash, and throws if so — from
// the Replica's perspective indistinguishable from a worker process dying
// mid-request, which is exactly the fault the quarantine/redispatch
// machinery must absorb. When the op is clean, the
// wrapped backend runs untouched, so outputs stay bit-identical to an
// unfaulted run (the gateway's exactness audit depends on this).
#pragma once

#include <memory>
#include <stdexcept>
#include <utility>

#include "fault/injector.hpp"
#include "serve/backend.hpp"

namespace reads::fault {

class ChaosBackend final : public serve::Backend {
 public:
  ChaosBackend(std::unique_ptr<serve::Backend> inner, std::size_t site,
               std::shared_ptr<Injector> injector)
      : inner_(std::move(inner)), site_(site), injector_(std::move(injector)) {}

  std::string_view name() const noexcept override { return "chaos"; }

  serve::Tensor infer(const serve::Tensor& frame) override {
    maybe_crash();
    return inner_->infer(frame);
  }

 private:
  void maybe_crash() {
    if (injector_->crash_next(site_)) {
      throw std::runtime_error("ChaosBackend: injected replica crash");
    }
  }

  std::unique_ptr<serve::Backend> inner_;
  std::size_t site_;
  std::shared_ptr<Injector> injector_;
};

}  // namespace reads::fault
