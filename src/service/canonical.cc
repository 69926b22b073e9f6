#include "service/canonical.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"

namespace htd::service {

namespace {

using util::HashCombine;

/// Replaces arbitrary 64-bit colour hashes by dense ranks in [0, #distinct).
/// Ranking by sorted hash value keeps the mapping independent of vertex and
/// edge numbering, which is what makes each refinement round invariant.
int Compress(std::vector<uint64_t>& colors) {
  std::vector<uint64_t> sorted(colors);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (auto& c : colors) {
    c = static_cast<uint64_t>(
        std::lower_bound(sorted.begin(), sorted.end(), c) - sorted.begin());
  }
  return static_cast<int>(sorted.size());
}

struct Refinement {
  std::vector<uint64_t> vcolor;  // dense vertex colours
  std::vector<uint64_t> ecolor;  // dense edge colours
  int num_vertex_classes = 0;
  int num_edge_classes = 0;
};

/// One-sided update: recolour `out` from its own colour plus the sorted
/// multiset of neighbour colours (edge ➞ member vertices, vertex ➞ incident
/// edges).
template <typename NeighborsFn>
void RecolorSide(std::vector<uint64_t>& out, const std::vector<uint64_t>& other,
                 NeighborsFn&& neighbors, uint64_t side_seed) {
  std::vector<uint64_t> next(out.size());
  std::vector<uint64_t> adj;
  for (size_t i = 0; i < out.size(); ++i) {
    adj.clear();
    neighbors(static_cast<int>(i), adj, other);
    std::sort(adj.begin(), adj.end());
    uint64_t h = HashCombine(side_seed, out[i]);
    for (uint64_t c : adj) h = HashCombine(h, c);
    h = HashCombine(h, adj.size());
    next[i] = h;
  }
  out = std::move(next);
}

/// Runs colour refinement to a fixed point. Colours are invariant under any
/// renaming of vertices or reordering of edges.
Refinement Refine(const Hypergraph& graph, std::vector<uint64_t> vcolor,
                  std::vector<uint64_t> ecolor) {
  const int n = graph.num_vertices();
  const int m = graph.num_edges();
  Refinement r;
  r.vcolor = std::move(vcolor);
  r.ecolor = std::move(ecolor);
  r.num_vertex_classes = Compress(r.vcolor);
  r.num_edge_classes = Compress(r.ecolor);

  auto edge_members = [&graph](int e, std::vector<uint64_t>& adj,
                               const std::vector<uint64_t>& vc) {
    for (int v : graph.edge_vertex_list(e)) adj.push_back(vc[v]);
  };
  auto vertex_edges = [&graph](int v, std::vector<uint64_t>& adj,
                               const std::vector<uint64_t>& ec) {
    for (int e : graph.edges_of_vertex(v)) adj.push_back(ec[e]);
  };

  // Each productive round strictly grows a class count; n + m bounds rounds.
  for (int round = 0; round < n + m + 1; ++round) {
    RecolorSide(r.ecolor, r.vcolor, edge_members, /*side_seed=*/0xe5);
    int edge_classes = Compress(r.ecolor);
    RecolorSide(r.vcolor, r.ecolor, vertex_edges, /*side_seed=*/0x5e);
    int vertex_classes = Compress(r.vcolor);
    if (edge_classes == r.num_edge_classes &&
        vertex_classes == r.num_vertex_classes) {
      break;
    }
    r.num_edge_classes = edge_classes;
    r.num_vertex_classes = vertex_classes;
  }
  return r;
}

/// Refines from the given seed colours, then individualises until the vertex
/// partition is discrete. The returned vector is the canonical vertex id of
/// each vertex. The member choice inside a tied class (lowest original id)
/// only matters for classes whose members are not automorphic; see the
/// header caveat.
std::vector<int> DiscreteVertexIds(const Hypergraph& graph,
                                   std::vector<uint64_t> vseed,
                                   std::vector<uint64_t> eseed) {
  const int n = graph.num_vertices();
  Refinement r = Refine(graph, std::move(vseed), std::move(eseed));
  while (r.num_vertex_classes < n) {
    std::vector<int> class_size(r.num_vertex_classes, 0);
    for (int v = 0; v < n; ++v) class_size[r.vcolor[v]]++;
    int target_class = -1;
    for (int c = 0; c < r.num_vertex_classes; ++c) {
      if (class_size[c] > 1) {
        target_class = c;
        break;
      }
    }
    HTD_CHECK(target_class >= 0);
    int chosen = -1;
    for (int v = 0; v < n; ++v) {
      if (static_cast<int>(r.vcolor[v]) == target_class) {
        chosen = v;
        break;
      }
    }
    r.vcolor[chosen] = static_cast<uint64_t>(r.num_vertex_classes);
    r = Refine(graph, std::move(r.vcolor), std::move(r.ecolor));
  }
  std::vector<int> ids(n);
  for (int v = 0; v < n; ++v) ids[v] = static_cast<int>(r.vcolor[v]);
  return ids;
}

/// 1 to 16 hex digits (either case) into one 64-bit word.
bool ParseHexWord(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

}  // namespace

std::string Fingerprint::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf);
}

bool Fingerprint::FromHex(std::string_view text, Fingerprint* out) {
  Fingerprint fp;
  if (text.size() != 32 || !ParseHexWord(text.substr(0, 16), &fp.hi) ||
      !ParseHexWord(text.substr(16), &fp.lo)) {
    return false;
  }
  *out = fp;
  return true;
}

std::string FingerprintRange::ToHex() const {
  char buf[34];
  std::snprintf(buf, sizeof(buf), "%016llx-%016llx",
                static_cast<unsigned long long>(first_hi),
                static_cast<unsigned long long>(last_hi));
  return std::string(buf);
}

bool FingerprintRange::FromHex(std::string_view text, FingerprintRange* out) {
  const size_t dash = text.find('-');
  FingerprintRange range;
  if (dash == std::string_view::npos ||
      !ParseHexWord(text.substr(0, dash), &range.first_hi) ||
      !ParseHexWord(text.substr(dash + 1), &range.last_hi) ||
      range.first_hi > range.last_hi) {
    return false;
  }
  *out = range;
  return true;
}

namespace {

std::vector<int> Inverse(const std::vector<int>& map) {
  std::vector<int> inverse(map.size());
  for (size_t i = 0; i < map.size(); ++i) inverse[map[i]] = static_cast<int>(i);
  return inverse;
}

/// `hd` with vertex v renamed vertex_map[v] and edge e renamed edge_map[e];
/// nullopt when a χ universe is not vertex_map.size() or an edge id falls
/// outside edge_map.
std::optional<Decomposition> Relabel(const Decomposition& hd,
                                     const std::vector<int>& vertex_map,
                                     const std::vector<int>& edge_map) {
  const int n = static_cast<int>(vertex_map.size());
  const int m = static_cast<int>(edge_map.size());
  Decomposition out;
  for (int u = 0; u < hd.num_nodes(); ++u) {
    const DecompNode& node = hd.node(u);
    if (node.chi.size_bits() != n) return std::nullopt;
    std::vector<int> lambda;
    for (int e : node.lambda) {
      if (e < 0 || e >= m) return std::nullopt;
      lambda.push_back(edge_map[e]);
    }
    util::DynamicBitset chi(n);
    node.chi.ForEach([&](int v) { chi.Set(vertex_map[v]); });
    out.AddNode(std::move(lambda), std::move(chi), node.parent);
  }
  return out;
}

}  // namespace

Decomposition CanonicalLabelling::ToCanonical(const Decomposition& hd) const {
  std::optional<Decomposition> canonical =
      Relabel(hd, vertex_ids, Inverse(edge_order));
  HTD_CHECK(canonical.has_value()) << "not an HD of this instance";
  return *std::move(canonical);
}

std::optional<Decomposition> CanonicalLabelling::FromCanonical(
    const Decomposition& hd) const {
  return Relabel(hd, Inverse(vertex_ids), edge_order);
}

CanonicalForm ComputeCanonicalForm(const Hypergraph& graph) {
  const int n = graph.num_vertices();
  const int m = graph.num_edges();

  // Seed colours: vertex degree / edge size (the degree/edge-size refinement).
  std::vector<uint64_t> vcolor(n), ecolor(m);
  for (int v = 0; v < n; ++v) {
    vcolor[v] = static_cast<uint64_t>(graph.edges_of_vertex(v).size());
  }
  for (int e = 0; e < m; ++e) {
    ecolor[e] = static_cast<uint64_t>(graph.edge_vertex_list(e).size());
  }
  // Individualisation makes the partition discrete: vcolor IS the canonical
  // vertex id.
  std::vector<int> ids = DiscreteVertexIds(graph, std::move(vcolor), std::move(ecolor));

  CanonicalForm form;
  form.num_vertices = n;
  form.num_edges = m;
  // Canonical edge order: canonical content ascending, ties (content-
  // identical edges) broken by input index.
  std::vector<std::pair<std::vector<int>, int>> records;
  records.reserve(m);
  for (int e = 0; e < m; ++e) {
    std::vector<int> edge;
    edge.reserve(graph.edge_vertex_list(e).size());
    for (int v : graph.edge_vertex_list(e)) {
      edge.push_back(ids[v]);
    }
    std::sort(edge.begin(), edge.end());
    records.emplace_back(std::move(edge), e);
  }
  std::sort(records.begin(), records.end());
  form.edges.reserve(m);
  form.labelling.edge_order.reserve(m);
  for (auto& [edge, input] : records) {
    form.edges.push_back(std::move(edge));
    form.labelling.edge_order.push_back(input);
  }
  form.labelling.vertex_ids = std::move(ids);

  // Two independently seeded mixes over (n, m, canonical edges) = 128 bits.
  uint64_t h1 = 0x6c6f676b64656331ULL;  // "logkdec1"
  uint64_t h2 = 0x6c6f676b64656332ULL;  // "logkdec2"
  auto absorb = [&](uint64_t value) {
    h1 = HashCombine(h1, value);
    h2 = HashCombine(h2, ~value);
  };
  absorb(static_cast<uint64_t>(n));
  absorb(static_cast<uint64_t>(m));
  for (const auto& edge : form.edges) {
    absorb(edge.size());
    for (int v : edge) absorb(static_cast<uint64_t>(v));
  }
  form.fingerprint = Fingerprint{h1, h2};
  return form;
}

Fingerprint CanonicalFingerprint(const Hypergraph& graph) {
  return ComputeCanonicalForm(graph).fingerprint;
}

SubproblemCanonicalForm FingerprintSubhypergraph(const Hypergraph& graph,
                                                 const SpecialEdgeRegistry& registry,
                                                 const ExtendedSubhypergraph& comp,
                                                 const util::DynamicBitset& conn) {
  SubproblemCanonicalForm form;

  // Dense-renumber V(H') = (⋃E') ∪ (⋃Sp) into a local universe. The rank
  // array is filled with local ids first and rewritten to canonical ids
  // after refinement, so only one base-universe-sized array is built. Its
  // O(|V(H)|) zero-fill per probe is a deliberate trade-off: dense lookups
  // beat hashing at corpus scale (revisit for huge, sparse instances).
  const util::DynamicBitset base_vertices = VerticesOf(graph, registry, comp);
  form.base_vertex_rank.assign(graph.num_vertices(), -1);
  std::vector<int>& local_of_base = form.base_vertex_rank;
  std::vector<int> base_of_local;
  base_vertices.ForEach([&](int v) {
    local_of_base[v] = static_cast<int>(base_of_local.size());
    base_of_local.push_back(v);
  });
  const int n = static_cast<int>(base_of_local.size());
  form.num_vertices = n;

  // Build the local incidence structure: component edges first, then special
  // edges (a special edge is its interface vertex set).
  Hypergraph local;
  for (int i = 0; i < n; ++i) local.AddVertex();
  std::vector<int> local_edge_source;  // local edge index → base edge / special id
  comp.edges.ForEach([&](int e) {
    std::vector<int> members;
    for (int v : graph.edge_vertex_list(e)) {
      members.push_back(local_of_base[v]);
    }
    HTD_CHECK(local.AddEdge(members).ok());
    local_edge_source.push_back(e);
  });
  const int num_component_edges = static_cast<int>(local_edge_source.size());
  for (int s : comp.specials) {
    std::vector<int> members;
    registry.vertices(s).ForEach(
        [&](int v) { members.push_back(local_of_base[v]); });
    HTD_CHECK(local.AddEdge(members).ok());
    local_edge_source.push_back(s);
  }
  const int m = local.num_edges();

  // Seed colours: (degree, Conn-membership) per vertex, (size, is-special)
  // per edge. Connector vertices outside V(H') cannot occur in solver calls
  // but are ignored if present (the rank filter drops them).
  std::vector<uint64_t> vseed(n), eseed(m);
  for (int v = 0; v < n; ++v) {
    const bool in_conn = conn.Test(base_of_local[v]);
    vseed[v] = HashCombine(static_cast<uint64_t>(local.edges_of_vertex(v).size()),
                           in_conn ? 0xc0 : 0x0c);
  }
  for (int e = 0; e < m; ++e) {
    const bool is_special = e >= num_component_edges;
    eseed[e] = HashCombine(static_cast<uint64_t>(local.edge_vertex_list(e).size()),
                           is_special ? 0x5b : 0xb5);
  }
  std::vector<int> ids = DiscreteVertexIds(local, std::move(vseed), std::move(eseed));

  // Rewrite the rank array in place: local ids become canonical ids.
  form.canonical_vertices.assign(n, -1);
  for (int v = 0; v < n; ++v) {
    form.canonical_vertices[ids[v]] = base_of_local[v];
    form.base_vertex_rank[base_of_local[v]] = ids[v];
  }

  // Canonical edge order: (label, canonical content) ascending. Ties are
  // content-identical edges of one label — interchangeable, so the original
  // index breaks them.
  struct EdgeRecord {
    int label;  // 0 = component edge, 1 = special edge
    std::vector<int> members;
    int local_index;
  };
  std::vector<EdgeRecord> records;
  records.reserve(m);
  for (int e = 0; e < m; ++e) {
    EdgeRecord record;
    record.label = e >= num_component_edges ? 1 : 0;
    for (int v : local.edge_vertex_list(e)) record.members.push_back(ids[v]);
    std::sort(record.members.begin(), record.members.end());
    record.local_index = e;
    records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end(),
            [](const EdgeRecord& a, const EdgeRecord& b) {
              if (a.label != b.label) return a.label < b.label;
              if (a.members != b.members) return a.members < b.members;
              return a.local_index < b.local_index;
            });
  for (const EdgeRecord& record : records) {
    if (record.label == 1) {
      form.special_order.push_back(local_edge_source[record.local_index]);
    }
  }

  // Fingerprint: two independent mixes over (n, counts, canonical Conn,
  // labelled canonical edges). Conn is absorbed explicitly — the seed
  // colours influence canonical ids, but the edge lists alone need not pin
  // the connector down.
  uint64_t h1 = 0x73756270726f6231ULL;  // "subprob1"
  uint64_t h2 = 0x73756270726f6232ULL;  // "subprob2"
  auto absorb = [&](uint64_t value) {
    h1 = HashCombine(h1, value);
    h2 = HashCombine(h2, ~value);
  };
  absorb(static_cast<uint64_t>(n));
  absorb(static_cast<uint64_t>(num_component_edges));
  absorb(static_cast<uint64_t>(m - num_component_edges));
  std::vector<int> conn_ids;
  conn.ForEach([&](int v) {
    if (form.base_vertex_rank[v] >= 0) conn_ids.push_back(form.base_vertex_rank[v]);
  });
  std::sort(conn_ids.begin(), conn_ids.end());
  absorb(conn_ids.size());
  for (int c : conn_ids) absorb(static_cast<uint64_t>(c));
  for (const EdgeRecord& record : records) {
    absorb(static_cast<uint64_t>(record.label));
    absorb(record.members.size());
    for (int v : record.members) absorb(static_cast<uint64_t>(v));
  }
  form.fingerprint = Fingerprint{h1, h2};
  return form;
}

std::string CanonicalString(const CanonicalForm& form) {
  std::string out = std::to_string(form.num_vertices) + " " +
                    std::to_string(form.num_edges);
  for (const auto& edge : form.edges) {
    out += " |";
    for (int v : edge) {
      out += " " + std::to_string(v);
    }
  }
  return out;
}

}  // namespace htd::service
