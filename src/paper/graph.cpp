#include "paper/graph.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace c64fft::codelet {

std::uint32_t CodeletGraph::add_node(CodeletKey key) {
  auto [it, inserted] = ids_.try_emplace(key, static_cast<std::uint32_t>(keys_.size()));
  if (inserted) {
    keys_.push_back(key);
    succ_.emplace_back();
    pred_.emplace_back();
  }
  return it->second;
}

void CodeletGraph::add_edge(CodeletKey producer, CodeletKey consumer) {
  const std::uint32_t p = add_node(producer);
  const std::uint32_t c = add_node(consumer);
  succ_[p].push_back(c);
  pred_[c].push_back(p);
  ++edges_;
}

std::uint32_t CodeletGraph::id_of(CodeletKey key) const {
  const auto it = ids_.find(key);
  if (it == ids_.end()) throw std::out_of_range("CodeletGraph: unknown node");
  return it->second;
}

std::uint32_t CodeletGraph::in_degree(CodeletKey key) const {
  const auto it = ids_.find(key);
  if (it == ids_.end()) throw std::out_of_range("CodeletGraph: unknown node");
  return static_cast<std::uint32_t>(pred_[it->second].size());
}

std::vector<CodeletKey> CodeletGraph::children(CodeletKey key) const {
  const auto it = ids_.find(key);
  if (it == ids_.end()) throw std::out_of_range("CodeletGraph: unknown node");
  std::vector<CodeletKey> out;
  out.reserve(succ_[it->second].size());
  for (auto id : succ_[it->second]) out.push_back(keys_[id]);
  return out;
}

std::vector<CodeletKey> CodeletGraph::parents(CodeletKey key) const {
  const auto it = ids_.find(key);
  if (it == ids_.end()) throw std::out_of_range("CodeletGraph: unknown node");
  std::vector<CodeletKey> out;
  out.reserve(pred_[it->second].size());
  for (auto id : pred_[it->second]) out.push_back(keys_[id]);
  return out;
}

bool CodeletGraph::is_well_behaved() const {
  try {
    (void)topological_order();
    return true;
  } catch (const std::logic_error&) {
    return false;
  }
}

std::vector<CodeletKey> CodeletGraph::topological_order() const {
  std::vector<std::uint32_t> indeg(keys_.size());
  for (std::uint32_t n = 0; n < keys_.size(); ++n)
    indeg[n] = static_cast<std::uint32_t>(pred_[n].size());
  std::deque<std::uint32_t> ready;
  for (std::uint32_t n = 0; n < keys_.size(); ++n)
    if (indeg[n] == 0) ready.push_back(n);

  std::vector<CodeletKey> order;
  order.reserve(keys_.size());
  while (!ready.empty()) {
    const std::uint32_t n = ready.front();
    ready.pop_front();
    order.push_back(keys_[n]);
    for (auto c : succ_[n])
      if (--indeg[c] == 0) ready.push_back(c);
  }
  if (order.size() != keys_.size())
    throw std::logic_error("CodeletGraph: cycle detected (not well-behaved)");
  return order;
}

std::vector<CodeletKey> CodeletGraph::simulate_firing(PoolPolicy policy) const {
  std::vector<std::uint32_t> tokens(keys_.size());
  for (std::uint32_t n = 0; n < keys_.size(); ++n)
    tokens[n] = static_cast<std::uint32_t>(pred_[n].size());

  std::deque<std::uint32_t> pool;
  for (std::uint32_t n = 0; n < keys_.size(); ++n)
    if (tokens[n] == 0) pool.push_back(n);

  std::vector<CodeletKey> fired;
  fired.reserve(keys_.size());
  while (!pool.empty()) {
    std::uint32_t n;
    if (policy == PoolPolicy::kLifo) {
      n = pool.back();
      pool.pop_back();
    } else {
      n = pool.front();
      pool.pop_front();
    }
    fired.push_back(keys_[n]);
    for (auto c : succ_[n])
      if (--tokens[c] == 0) pool.push_back(c);
  }
  if (fired.size() != keys_.size())
    throw std::logic_error("CodeletGraph: some codelets never fired");
  return fired;
}

}  // namespace c64fft::codelet
