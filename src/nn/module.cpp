#include "nn/module.h"

namespace itask::nn {

std::vector<Parameter*> Module::parameters() {
  std::vector<Parameter*> out;
  for (auto& p : params_) out.push_back(p.get());
  for (auto& c : children_) {
    auto sub = c.module->parameters();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

int64_t Module::parameter_count() {
  int64_t n = 0;
  for (Parameter* p : parameters()) n += p->value.numel();
  return n;
}

void Module::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

io::StateDict Module::state_dict() const {
  io::StateDict state;
  for (auto& p : params_) state.emplace(p->name, p->value);
  for (auto& c : children_) {
    for (auto& [k, v] : c.module->state_dict())
      state.emplace(c.name + "." + k, v);
  }
  return state;
}

void Module::load_state_dict(const io::StateDict& state) {
  for (auto& p : params_) {
    auto it = state.find(p->name);
    ITASK_CHECK(it != state.end(), "missing parameter in state dict: " + p->name);
    ITASK_CHECK(it->second.shape() == p->value.shape(),
                "shape mismatch loading parameter " + p->name);
    p->value = it->second;
  }
  for (auto& c : children_) {
    io::StateDict scoped;
    const std::string prefix = c.name + ".";
    for (const auto& [k, v] : state) {
      if (k.rfind(prefix, 0) == 0) scoped.emplace(k.substr(prefix.size()), v);
    }
    c.module->load_state_dict(scoped);
  }
}

Parameter& Module::register_parameter(std::string name, Tensor init) {
  params_.push_back(
      std::make_unique<Parameter>(std::move(name), std::move(init)));
  return *params_.back();
}

void Module::prepack_for_serving() {
  for (auto& c : children_) c.module->prepack_for_serving();
}

void Module::register_child(std::string name, Module& child) {
  children_.push_back(Child{std::move(name), &child});
}

}  // namespace itask::nn
