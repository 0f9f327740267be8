#pragma once
// The three workloads and the pieces they share: the PAMAP-shaped world,
// serial reference answers, ServerStats-to-metric mapping and the layer
// probes of a traced run.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bench.hpp"
#include "robusthd/hv/binvec.hpp"
#include "robusthd/hv/encoder.hpp"
#include "robusthd/model/hdc_model.hpp"
#include "robusthd/serve/server.hpp"

namespace perfbench {

Result run_wire_small(const RunConfig& config);
Result run_wide_model(const RunConfig& config);
Result run_features_repair(const RunConfig& config);

/// What serial HdcModel::predict (and the confidence model the server
/// applies to HdcModel::scores) answers for one query.
struct Reference {
  int label = -1;
  std::uint64_t confidence_bits = 0;  ///< IEEE-754 pattern of confidence
};
std::vector<Reference> reference_answers(const robusthd::model::HdcModel& m,
                                         std::span<const robusthd::hv::BinVec> q);
std::uint64_t double_bits(double v) noexcept;

/// Reference answers that follow the server's snapshots: with recovery on,
/// the scrubber republishes the model, and each answer must match serial
/// scoring on the snapshot it carries (Response::model_version). The
/// generator polls for new snapshots between sends and captures each with
/// its version; an answer naming a snapshot that was superseded before it
/// could be captured is counted as unverified (neither right nor wrong).
class VersionedReference {
 public:
  VersionedReference(const robusthd::serve::Server& server,
                     std::span<const robusthd::hv::BinVec> queries);
  /// Captures the current snapshot if it is new. Cheap when it is not.
  void poll();
  /// Reference for query `index` under snapshot `version`, or nullptr
  /// when that snapshot was never captured.
  const Reference* find(std::uint64_t version, std::size_t index);
  std::uint64_t unverified = 0;

 private:
  struct Snapshot {
    std::shared_ptr<const robusthd::model::HdcModel> model;
    std::vector<Reference> refs;
    std::vector<std::uint8_t> ready;
  };
  Snapshot* lookup(std::uint64_t version);

  const robusthd::serve::Server& server_;
  std::span<const robusthd::hv::BinVec> queries_;
  std::vector<std::pair<std::uint64_t, Snapshot>> snapshots_;
  const robusthd::model::HdcModel* last_seen_ = nullptr;
};

/// PAMAP-shaped data (75 features, k=5) encoded at D=4000, a model trained
/// on it, a query pool and held-out canaries; the same for every run.
struct PamapWorld {
  std::shared_ptr<const robusthd::hv::RecordEncoder> encoder;
  robusthd::model::HdcModel model;
  std::vector<std::vector<float>> features;  ///< query pool, raw features
  std::vector<robusthd::hv::BinVec> queries; ///< the pool, encoded
  std::vector<int> labels;                   ///< ground truth of the pool
  std::vector<robusthd::hv::BinVec> canaries;
  std::vector<int> canary_labels;
};
PamapWorld make_pamap_world();

/// Server counters of one window (take `before` after a drain()) as
/// `serve.*`, `recovery.*`, `sentinel.*` and `persist.*` metrics.
void add_server_metrics(const robusthd::serve::ServerStats& before,
                        const robusthd::serve::ServerStats& after,
                        Metrics& out);

/// Generator validity and software counters of a window.
void add_window_metrics(const Window& w, Metrics& out);

/// Layer-by-layer probes on one model and query pool: kernels, mem,
/// model, hv, in-process serve, wire, loopback frontend, client and a
/// pass-through NetChaos hop. Fills every probe metric of the ledger.
struct ProbeInputs {
  const robusthd::model::HdcModel* model = nullptr;
  std::span<const robusthd::hv::BinVec> queries;
  /// Encoder and raw features for hv.encode_ns; a workload without an
  /// encoder passes a throwaway one at its own dimension.
  const robusthd::hv::Encoder* encoder = nullptr;
  std::span<const std::vector<float>> features;
};
void probe_layers(const ProbeInputs& in, Metrics& out);

/// The traced-run overhead: traced vs untraced CPU per query and p50.
void add_trace_overhead(const Window& untraced, const Window& traced,
                        Metrics& out);

}  // namespace perfbench
