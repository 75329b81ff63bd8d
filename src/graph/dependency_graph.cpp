#include "graph/dependency_graph.hpp"

#include <algorithm>
#include <cassert>

#include "graph/union_find.hpp"

namespace defuse::graph {

DependencyGraph::DependencyGraph(std::size_t num_functions)
    : num_functions_(num_functions) {}

void DependencyGraph::AddStrongItemset(std::span<const FunctionId> functions,
                                       std::uint64_t support) {
  for (std::size_t i = 0; i < functions.size(); ++i) {
    for (std::size_t j = i + 1; j < functions.size(); ++j) {
      AddEdge(DependencyEdge{.a = functions[i],
                             .b = functions[j],
                             .kind = EdgeKind::kStrong,
                             .weight = static_cast<double>(support)});
    }
  }
}

void DependencyGraph::AddWeakDependency(FunctionId source, FunctionId target,
                                        double ppmi) {
  AddEdge(DependencyEdge{
      .a = source, .b = target, .kind = EdgeKind::kWeak, .weight = ppmi});
}

void DependencyGraph::AddEdge(DependencyEdge edge) {
  assert(edge.a.value() < num_functions_);
  assert(edge.b.value() < num_functions_);
  assert(edge.a != edge.b);
  edges_.push_back(edge);
}

std::size_t DependencyGraph::num_strong_edges() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(edges_.begin(), edges_.end(), [](const auto& e) {
        return e.kind == EdgeKind::kStrong;
      }));
}

std::size_t DependencyGraph::num_weak_edges() const noexcept {
  return edges_.size() - num_strong_edges();
}

std::vector<FunctionId> DependencyGraph::Neighbors(FunctionId fn) const {
  std::vector<FunctionId> result;
  for (const auto& e : edges_) {
    if (e.a == fn) result.push_back(e.b);
    if (e.b == fn) result.push_back(e.a);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::vector<DependencySet> DependencyGraph::ConnectedComponents() const {
  UnionFind uf{num_functions_};
  for (const auto& e : edges_) uf.Union(e.a.value(), e.b.value());
  auto raw = uf.Components();
  std::vector<DependencySet> sets;
  sets.reserve(raw.size());
  for (auto& members : raw) {
    DependencySet set;
    set.id = static_cast<std::uint32_t>(sets.size());
    set.functions.reserve(members.size());
    for (const std::uint32_t m : members) set.functions.push_back(FunctionId{m});
    sets.push_back(std::move(set));
  }
  return sets;
}

void DependencyGraph::Canonicalize() {
  // Normalize strong edges to (min, max) endpoint order (they are
  // undirected), then dedupe by (a, b, kind) keeping the best weight.
  for (auto& e : edges_) {
    if (e.kind == EdgeKind::kStrong && e.b < e.a) std::swap(e.a, e.b);
  }
  std::sort(edges_.begin(), edges_.end(),
            [](const DependencyEdge& x, const DependencyEdge& y) {
              if (x.a != y.a) return x.a < y.a;
              if (x.b != y.b) return x.b < y.b;
              if (x.kind != y.kind) return x.kind < y.kind;
              return x.weight > y.weight;  // best weight first
            });
  edges_.erase(std::unique(edges_.begin(), edges_.end(),
                           [](const DependencyEdge& x,
                              const DependencyEdge& y) {
                             return x.a == y.a && x.b == y.b &&
                                    x.kind == y.kind;
                           }),
               edges_.end());
}

std::string DependencyGraph::ToDot(
    const std::vector<std::string>* names) const {
  const auto label = [&](FunctionId fn) {
    if (names != nullptr && fn.value() < names->size()) {
      return (*names)[fn.value()];
    }
    std::string name = "f";
    name += std::to_string(fn.value());
    return name;
  };
  std::string out = "digraph dependencies {\n";
  for (const auto& e : edges_) {
    if (e.kind == EdgeKind::kStrong) {
      out += "  \"" + label(e.a) + "\" -> \"" + label(e.b) +
             "\" [dir=none, style=solid];\n";
    } else {
      out += "  \"" + label(e.a) + "\" -> \"" + label(e.b) +
             "\" [style=dashed];\n";
    }
  }
  out += "}\n";
  return out;
}

std::vector<std::uint32_t> FunctionToSetIndex(
    const std::vector<DependencySet>& sets, std::size_t num_functions) {
  std::vector<std::uint32_t> index(num_functions, ~0u);
  for (const auto& set : sets) {
    for (const FunctionId fn : set.functions) {
      assert(fn.value() < num_functions);
      index[fn.value()] = set.id;
    }
  }
  return index;
}

}  // namespace defuse::graph
