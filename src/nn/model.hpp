// Model: a single-input DAG of named layers with forward, full-activation
// capture (for the HLS precision profiler), and reverse-mode backward.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace reads::nn {

/// One graph node. Node 0 is always the input pseudo-node (layer == nullptr).
struct Node {
  std::string name;
  std::unique_ptr<Layer> layer;           // nullptr for the input node
  std::vector<std::size_t> inputs;        // indices of producer nodes
  Shape shape;                            // output shape, inferred at add()
};

/// All per-node outputs from one forward pass, indexed like Model::nodes().
struct Activations {
  std::vector<Tensor> values;
  const Tensor& output() const { return values.back(); }
};

/// Gradient storage parallel to Model::parameters(). Workers each own one
/// and the trainer reduces them, keeping backward() re-entrant.
class GradStore {
 public:
  GradStore() = default;
  explicit GradStore(const std::vector<Shape>& shapes);

  std::vector<Tensor>& tensors() noexcept { return grads_; }
  const std::vector<Tensor>& tensors() const noexcept { return grads_; }
  void zero();
  void add(const GradStore& other);
  void scale(float s);

 private:
  std::vector<Tensor> grads_;
};

class Model {
 public:
  /// Begin a model whose (single) input has the given shape.
  Model(std::string input_name, Shape input_shape);

  Model(Model&&) noexcept = default;
  Model& operator=(Model&&) noexcept = default;

  /// Append a layer consuming the named producer nodes; returns its node id.
  std::size_t add(std::string name, std::unique_ptr<Layer> layer,
                  const std::vector<std::string>& input_names);
  /// Convenience: consume the most recently added node.
  std::size_t add(std::string name, std::unique_ptr<Layer> layer);

  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  std::size_t node_id(const std::string& name) const;
  const Shape& input_shape() const noexcept { return nodes_.front().shape; }
  const Shape& output_shape() const noexcept { return nodes_.back().shape; }

  /// Inference: returns the final output only. Internally runs over a
  /// per-thread scratch Activations, so repeated calls do not allocate.
  Tensor forward(const Tensor& input) const;

  /// Run many frames on the global thread pool; results are in input order.
  std::vector<Tensor> forward_batch(std::span<const Tensor> inputs) const;

  /// Forward capturing every node's output (training and profiling).
  Activations forward_all(const Tensor& input, bool training = false) const;

  /// Same, but reusing caller-owned Activations storage: each node tensor is
  /// resized in place, so a loop that passes the same `acts` allocates only
  /// on its first iteration.
  void forward_all_into(const Tensor& input, Activations& acts,
                        bool training = false) const;

  /// Reverse-mode pass. `grad_output` is dLoss/dOutput for the activations
  /// in `acts`; parameter gradients are accumulated into `store`.
  void backward(const Activations& acts, const Tensor& grad_output,
                GradStore& store) const;

  /// Sequentially fold per-sample statistics (BatchNorm running stats).
  void update_running_stats(const Activations& acts);

  /// Flat views over every trainable tensor, in node order.
  std::vector<Tensor*> parameters();
  std::vector<const Tensor*> parameters() const;
  std::vector<Shape> parameter_shapes() const;
  std::size_t param_count() const;

  /// Human-readable layer table (name, type, output shape, params).
  std::string summary() const;

 private:
  std::vector<Node> nodes_;
};

}  // namespace reads::nn
