#include "instances.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "hypergraph/generators.h"
#include "hypergraph/writer.h"

namespace perfbench {

using htd::Hypergraph;
using htd::util::Rng;

namespace {

RequestClass MakeClass(std::string family, Hypergraph graph, int k) {
  RequestClass c;
  c.family = std::move(family);
  c.graph = std::move(graph);
  c.k = k;
  return c;
}

}  // namespace

std::string IsomorphicCopy(const Hypergraph& graph, Rng& rng, const std::string& tag) {
  // A random bijection vertex id -> fresh name, and edge order shuffled.
  // Vertex ids of the copy follow first appearance in the shuffled edges,
  // as a parser of the rendered text numbers them.
  std::vector<int> vertex_perm(graph.num_vertices());
  std::iota(vertex_perm.begin(), vertex_perm.end(), 0);
  rng.Shuffle(vertex_perm);
  std::vector<int> edge_order(graph.num_edges());
  std::iota(edge_order.begin(), edge_order.end(), 0);
  rng.Shuffle(edge_order);

  Hypergraph copy;
  for (size_t i = 0; i < edge_order.size(); ++i) {
    std::vector<int> vs = graph.edge_vertex_list(edge_order[i]);
    rng.Shuffle(vs);
    for (int& v : vs) {
      v = copy.GetOrAddVertex("x" + tag + "v" + std::to_string(vertex_perm[v]));
    }
    (void)copy.AddEdge("r" + tag + "e" + std::to_string(i), vs);
  }
  return htd::WriteHyperBench(copy);
}

std::vector<RequestClass> SmallCqClasses(Rng& rng, int count) {
  std::vector<RequestClass> classes;
  for (int i = 0; static_cast<int>(classes.size()) < count; ++i) {
    switch (i % 5) {
      case 0:
        classes.push_back(MakeClass("path", htd::MakePath(rng.UniformInt(4, 11)), 2));
        break;
      case 1:
        classes.push_back(MakeClass("cycle", htd::MakeCycle(rng.UniformInt(3, 10)), 2));
        break;
      case 2:
        classes.push_back(MakeClass("star", htd::MakeStar(rng.UniformInt(3, 10)), 2));
        break;
      case 3: {
        Rng child = rng.Fork();
        classes.push_back(MakeClass(
            "acq", htd::MakeAcyclicQuery(child, rng.UniformInt(3, 10), 4), 2));
        break;
      }
      default: {
        Rng child = rng.Fork();
        classes.push_back(MakeClass(
            "cq", htd::MakeRandomCq(child, rng.UniformInt(4, 10), 4, 0.25), 2));
        break;
      }
    }
  }
  return classes;
}

std::vector<RequestClass> MixedWarmClasses(Rng& rng, int small, int large) {
  std::vector<RequestClass> classes = SmallCqClasses(rng, small / 2);
  // Sizes are evenly spaced, so seeds vary the shapes, not the size mix.
  const int mid = small - static_cast<int>(classes.size());
  for (int i = 0; i < mid; ++i) {
    Rng child = rng.Fork();
    const int edges = 11 + i * 39 / std::max(1, mid - 1);  // 11..50
    const int k = 2 + i % 2;
    if (i % 2 == 0) {
      classes.push_back(
          MakeClass("acq-mid", htd::MakeAcyclicQuery(child, edges, 4), k));
    } else {
      classes.push_back(
          MakeClass("hcycle-mid", htd::MakeHyperCycle(edges, 3, 1), k));
    }
  }
  for (int i = 0; i < large; ++i) {
    Rng child = rng.Fork();
    const int edges = 50 + i * 150 / std::max(1, large - 1);  // 50..200
    switch (i % 3) {
      case 0:
        classes.push_back(MakeClass("bigacq", htd::MakeAcyclicQuery(child, edges, 4), 2));
        break;
      case 1:
        classes.push_back(MakeClass("hcycle", htd::MakeHyperCycle(edges, 3, 1), 3));
        break;
      default:
        classes.push_back(
            MakeClass("bundle", htd::MakeCycleBundle(edges / 10, 10), 2));
        break;
    }
  }
  return classes;
}

std::vector<RequestClass> FreshClasses(Rng& rng, int count, const std::string& tag) {
  constexpr double kMaxEdges = 200;
  std::vector<RequestClass> classes;
  for (int i = 0; i < count; ++i) {
    Rng child = rng.Fork();
    const int k = rng.UniformInt(2, 3);
    // |E| log-uniform over [4, 200]: every size, small ones most often.
    // Stratified (instance i draws from the i-th of `count` equal slices), so
    // seeds vary the shapes, not the size mix.
    const double u = (i + rng.UniformDouble()) / count;
    const int m = static_cast<int>(std::lround(4 * std::pow(kMaxEdges / 4, u)));
    const int chords = rng.UniformInt(1, 3);
    switch (i % 8) {
      case 0:
        classes.push_back(MakeClass("acq", htd::MakeAcyclicQuery(child, m, 4), k));
        break;
      case 1:
        classes.push_back(MakeClass("cq", htd::MakeRandomCq(child, m, 4, 0.25), k));
        break;
      case 2:
        classes.push_back(MakeClass(
            "chordcycle",
            htd::AddRandomChords(htd::MakeCycle(std::max(3, m - chords)), child, chords),
            k));
        break;
      case 3:
        classes.push_back(MakeClass(
            "hcycle",
            htd::AddRandomChords(
                htd::MakeHyperCycle(std::max(3, m - 1), rng.UniformInt(3, 4), 1), child, 1),
            k));
        break;
      case 4:
        classes.push_back(MakeClass(
            "csp", htd::MakeRandomCsp(child, std::max(6, 2 * m), m, 2, 3), k));
        break;
      case 5: {
        // r x c grid has r(c-1) + c(r-1) edges.
        const int rows = rng.UniformInt(2, 3);
        const int cols = std::max(3, (m + rows) / (2 * rows - 1));
        classes.push_back(MakeClass(
            "grid", htd::AddRandomChords(htd::MakeGrid(rows, cols), child, 1), k));
        break;
      }
      case 6: {
        const int length = rng.UniformInt(4, 8);
        classes.push_back(MakeClass(
            "bundle",
            htd::AddRandomChords(htd::MakeCycleBundle(std::max(2, m / length), length),
                                 child, 1),
            k));
        break;
      }
      default:
        classes.push_back(MakeClass(
            "chordacq",
            htd::AddRandomChords(htd::MakeAcyclicQuery(child, std::max(3, m - chords), 4),
                                 child, chords),
            k));
        break;
    }
    // Fresh names per instance (tag + index). Shapes are random; the caller
    // drops the rare shape that repeats an earlier one (same fingerprint).
    Rng rename = rng.Fork();
    classes.back().bodies.push_back(
        IsomorphicCopy(classes.back().graph, rename, tag + std::to_string(i)));
  }
  return classes;
}

}  // namespace perfbench
