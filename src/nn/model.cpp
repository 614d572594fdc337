#include "nn/model.hpp"

#include <array>
#include <sstream>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace reads::nn {

GradStore::GradStore(const std::vector<Shape>& shapes) {
  grads_.reserve(shapes.size());
  for (const auto& s : shapes) grads_.emplace_back(s);
}

void GradStore::zero() {
  for (auto& g : grads_) g.zero();
}

void GradStore::add(const GradStore& other) {
  if (other.grads_.size() != grads_.size()) {
    throw std::invalid_argument("GradStore::add: layout mismatch");
  }
  for (std::size_t i = 0; i < grads_.size(); ++i) {
    grads_[i].add_scaled(other.grads_[i], 1.0f);
  }
}

void GradStore::scale(float s) {
  for (auto& g : grads_) g.scale(s);
}

Model::Model(std::string input_name, Shape input_shape) {
  Node input;
  input.name = std::move(input_name);
  input.shape = std::move(input_shape);
  nodes_.push_back(std::move(input));
}

std::size_t Model::node_id(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return i;
  }
  throw std::invalid_argument("Model: no node named '" + name + "'");
}

std::size_t Model::add(std::string name, std::unique_ptr<Layer> layer,
                       const std::vector<std::string>& input_names) {
  if (!layer) throw std::invalid_argument("Model::add: null layer");
  if (input_names.size() != layer->arity()) {
    throw std::invalid_argument("Model::add: '" + name + "' expects " +
                                std::to_string(layer->arity()) + " inputs");
  }
  for (const auto& n : nodes_) {
    if (n.name == name) {
      throw std::invalid_argument("Model::add: duplicate node '" + name + "'");
    }
  }
  Node node;
  node.name = std::move(name);
  std::vector<Shape> in_shapes;
  for (const auto& in : input_names) {
    const auto id = node_id(in);
    node.inputs.push_back(id);
    in_shapes.push_back(nodes_[id].shape);
  }
  node.shape = layer->output_shape(in_shapes);
  node.layer = std::move(layer);
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

std::size_t Model::add(std::string name, std::unique_ptr<Layer> layer) {
  return add(std::move(name), std::move(layer), {nodes_.back().name});
}

Activations Model::forward_all(const Tensor& input, bool training) const {
  Activations acts;
  forward_all_into(input, acts, training);
  return acts;
}

void Model::forward_all_into(const Tensor& input, Activations& acts,
                             bool training) const {
  if (input.shape() != nodes_.front().shape) {
    throw std::invalid_argument("Model::forward: input shape " +
                                input.shape_string() + " != expected");
  }
  acts.values.resize(nodes_.size());
  acts.values[0] = input;  // vector copy-assign reuses existing capacity
  // Fixed-size stack of input pointers: every layer here is unary or binary.
  std::array<const Tensor*, 4> ins{};
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    const std::size_t arity = node.inputs.size();
    if (arity > ins.size()) {
      throw std::logic_error("Model::forward: unsupported layer arity");
    }
    for (std::size_t j = 0; j < arity; ++j) {
      ins[j] = &acts.values[node.inputs[j]];
    }
    node.layer->forward_into({ins.data(), arity}, acts.values[i], training);
  }
}

Tensor Model::forward(const Tensor& input) const {
  thread_local Activations scratch;
  forward_all_into(input, scratch, /*training=*/false);
  return scratch.values.back();
}

std::vector<Tensor> Model::forward_batch(
    std::span<const Tensor> inputs) const {
  std::vector<Tensor> outputs(inputs.size());
  util::parallel_for(std::size_t{0}, inputs.size(),
                     [&](std::size_t i) { outputs[i] = forward(inputs[i]); });
  return outputs;
}

void Model::backward(const Activations& acts, const Tensor& grad_output,
                     GradStore& store) const {
  if (acts.values.size() != nodes_.size()) {
    throw std::invalid_argument("Model::backward: stale activations");
  }
  std::vector<Tensor> node_grads(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    node_grads[i] = Tensor(nodes_[i].shape);
  }
  node_grads.back().add_scaled(grad_output, 1.0f);

  // Parameter tensors were laid out in node order; walk the same order.
  std::vector<std::size_t> param_offset(nodes_.size(), 0);
  {
    std::size_t off = 0;
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      param_offset[i] = off;
      off += nodes_[i].layer->params().size();
    }
  }

  for (std::size_t i = nodes_.size() - 1; i >= 1; --i) {
    const Node& node = nodes_[i];
    std::vector<const Tensor*> ins;
    std::vector<Tensor*> grad_ins;
    for (auto id : node.inputs) {
      ins.push_back(&acts.values[id]);
      grad_ins.push_back(&node_grads[id]);
    }
    std::vector<Tensor*> pgrads;
    const auto n_params = node.layer->params().size();
    for (std::size_t p = 0; p < n_params; ++p) {
      pgrads.push_back(&store.tensors()[param_offset[i] + p]);
    }
    node.layer->backward(ins, acts.values[i], node_grads[i], grad_ins, pgrads);
  }
}

void Model::update_running_stats(const Activations& acts) {
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    std::vector<const Tensor*> ins;
    for (auto id : node.inputs) ins.push_back(&acts.values[id]);
    node.layer->update_running_stats(ins);
  }
}

std::vector<Tensor*> Model::parameters() {
  std::vector<Tensor*> ps;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    for (auto* p : nodes_[i].layer->params()) ps.push_back(p);
  }
  return ps;
}

std::vector<const Tensor*> Model::parameters() const {
  auto ps = const_cast<Model*>(this)->parameters();
  return {ps.begin(), ps.end()};
}

std::vector<Shape> Model::parameter_shapes() const {
  std::vector<Shape> shapes;
  for (const auto* p : parameters()) shapes.push_back(p->shape());
  return shapes;
}

std::size_t Model::param_count() const {
  std::size_t n = 0;
  for (const auto* p : parameters()) n += p->numel();
  return n;
}

std::string Model::summary() const {
  std::ostringstream out;
  out << "node                 type          output        params\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    std::string type = i == 0 ? "Input" : std::string(n.layer->type());
    std::string shape = "(";
    for (std::size_t d = 0; d < n.shape.size(); ++d) {
      shape += std::to_string(n.shape[d]);
      if (d + 1 < n.shape.size()) shape += ", ";
    }
    shape += ")";
    const std::size_t params = i == 0 ? 0 : n.layer->param_count();
    out << n.name << std::string(n.name.size() < 21 ? 21 - n.name.size() : 1, ' ')
        << type << std::string(type.size() < 14 ? 14 - type.size() : 1, ' ')
        << shape << std::string(shape.size() < 14 ? 14 - shape.size() : 1, ' ')
        << params << '\n';
  }
  out << "total trainable parameters: " << param_count() << '\n';
  return out.str();
}

}  // namespace reads::nn
