#include "ir/analysis/callgraph.hpp"

#include <algorithm>

#include "ir/runtime_abi.hpp"

namespace raptor::ir::analysis {

int CallGraph::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> CallGraph::roots() const {
  std::vector<int> out;
  for (int f = 0; f < num_funcs(); ++f) {
    // A caller inside the same SCC (recursion) does not disqualify a root:
    // a caller-less cycle would otherwise be unrootable.
    bool outside_caller = false;
    for (const int c : callers[static_cast<std::size_t>(f)]) {
      if (scc_id[static_cast<std::size_t>(c)] != scc_id[static_cast<std::size_t>(f)]) {
        outside_caller = true;
        break;
      }
    }
    if (outside_caller) continue;
    if (!callers[static_cast<std::size_t>(f)].empty()) {
      // Caller-less cycle: keep only its first member as the representative.
      const auto& members = scc_members[static_cast<std::size_t>(scc_id[static_cast<std::size_t>(f)])];
      if (f != *std::min_element(members.begin(), members.end())) continue;
    }
    out.push_back(f);
  }
  return out;
}

std::vector<int> CallGraph::reachable_from(const std::vector<int>& from) const {
  std::vector<char> seen(names.size(), 0);
  std::vector<int> stack;
  for (const int f : from) {
    if (f >= 0 && f < num_funcs() && seen[static_cast<std::size_t>(f)] == 0) {
      seen[static_cast<std::size_t>(f)] = 1;
      stack.push_back(f);
    }
  }
  while (!stack.empty()) {
    const int f = stack.back();
    stack.pop_back();
    for (const int c : callees[static_cast<std::size_t>(f)]) {
      if (seen[static_cast<std::size_t>(c)] == 0) {
        seen[static_cast<std::size_t>(c)] = 1;
        stack.push_back(c);
      }
    }
  }
  std::vector<int> out;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] != 0) out.push_back(static_cast<int>(i));
  }
  return out;
}

namespace {

/// Iterative Tarjan SCC; assigns ids in reverse topological order (an SCC's
/// id is final before any SCC that can reach it gets one).
struct Tarjan {
  const CallGraph& cg;
  std::vector<int> index, lowlink;
  std::vector<char> on_stack;
  std::vector<int> stack;
  int next_index = 0;
  std::vector<int>& scc_id;
  std::vector<std::vector<int>>& members;

  Tarjan(const CallGraph& g, std::vector<int>& ids, std::vector<std::vector<int>>& mem)
      : cg(g),
        index(g.names.size(), -1),
        lowlink(g.names.size(), 0),
        on_stack(g.names.size(), 0),
        scc_id(ids),
        members(mem) {}

  void run(int root) {
    // Explicit DFS frames: (node, next callee position).
    std::vector<std::pair<int, std::size_t>> frames;
    frames.emplace_back(root, 0);
    index[static_cast<std::size_t>(root)] = lowlink[static_cast<std::size_t>(root)] = next_index++;
    stack.push_back(root);
    on_stack[static_cast<std::size_t>(root)] = 1;
    while (!frames.empty()) {
      auto& [v, next] = frames.back();
      const auto& cs = cg.callees[static_cast<std::size_t>(v)];
      if (next < cs.size()) {
        const int w = cs[next++];
        if (index[static_cast<std::size_t>(w)] < 0) {
          index[static_cast<std::size_t>(w)] = lowlink[static_cast<std::size_t>(w)] = next_index++;
          stack.push_back(w);
          on_stack[static_cast<std::size_t>(w)] = 1;
          frames.emplace_back(w, 0);
        } else if (on_stack[static_cast<std::size_t>(w)] != 0) {
          lowlink[static_cast<std::size_t>(v)] =
              std::min(lowlink[static_cast<std::size_t>(v)], index[static_cast<std::size_t>(w)]);
        }
      } else {
        if (lowlink[static_cast<std::size_t>(v)] == index[static_cast<std::size_t>(v)]) {
          const int id = static_cast<int>(members.size());
          members.emplace_back();
          int w = -1;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = 0;
            scc_id[static_cast<std::size_t>(w)] = id;
            members.back().push_back(w);
          } while (w != v);
          std::sort(members.back().begin(), members.back().end());
        }
        const int done = v;
        frames.pop_back();
        if (!frames.empty()) {
          const int parent = frames.back().first;
          lowlink[static_cast<std::size_t>(parent)] = std::min(
              lowlink[static_cast<std::size_t>(parent)], lowlink[static_cast<std::size_t>(done)]);
        }
      }
    }
  }
};

}  // namespace

CallGraph build_call_graph(const Module& m) {
  CallGraph cg;
  cg.names.reserve(m.funcs.size());
  for (const auto& f : m.funcs) cg.names.push_back(f.name);
  cg.callees.resize(m.funcs.size());
  cg.callers.resize(m.funcs.size());
  cg.externals.resize(m.funcs.size());

  for (std::size_t fi = 0; fi < m.funcs.size(); ++fi) {
    for (const std::string& callee : direct_callees(m.funcs[fi])) {
      const int ci = cg.index_of(callee);
      if (ci >= 0) {
        cg.callees[fi].push_back(ci);
        cg.callers[static_cast<std::size_t>(ci)].push_back(static_cast<int>(fi));
      } else if (!is_runtime_call(callee)) {
        cg.externals[fi].push_back(callee);
      }
    }
  }

  cg.scc_id.assign(m.funcs.size(), -1);
  Tarjan t(cg, cg.scc_id, cg.scc_members);
  for (int f = 0; f < cg.num_funcs(); ++f) {
    if (t.index[static_cast<std::size_t>(f)] < 0) t.run(f);
  }
  cg.scc_recursive.assign(cg.scc_members.size(), false);
  for (std::size_t id = 0; id < cg.scc_members.size(); ++id) {
    const auto& mem = cg.scc_members[id];
    if (mem.size() > 1) {
      cg.scc_recursive[id] = true;
    } else {
      const int f = mem.front();
      const auto& cs = cg.callees[static_cast<std::size_t>(f)];
      cg.scc_recursive[id] = std::find(cs.begin(), cs.end(), f) != cs.end();
    }
  }
  return cg;
}

}  // namespace raptor::ir::analysis
