#ifndef SAMYA_SIM_CLUSTER_H_
#define SAMYA_SIM_CLUSTER_H_

#include <memory>
#include <utility>
#include <vector>

#include "sim/environment.h"
#include "sim/network.h"
#include "storage/stable_storage.h"

namespace samya::sim {

/// \brief Owns a complete simulated deployment: environment, network, nodes,
/// and per-node crash-surviving stable storage.
///
/// Node ids are assigned in `AddNode` order. Node constructors receive
/// `(NodeId, Region, args...)`; after construction the node is registered
/// with the network so its `Send`/`SetTimer` helpers work.
class Cluster {
 public:
  explicit Cluster(uint64_t seed, LatencyModel model = LatencyModel())
      : env_(seed), network_(&env_, model) {}

  template <typename T, typename... Args>
  T* AddNode(Region region, Args&&... args) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    auto node = std::make_unique<T>(id, region, std::forward<Args>(args)...);
    T* ptr = node.get();
    nodes_.push_back(std::move(node));
    storages_.push_back(std::make_unique<storage::InMemoryStableStorage>());
    network_.Register(ptr);
    return ptr;
  }

  /// Stable storage for node `id`; survives the node's crashes. Nodes fetch
  /// this at Start/Recover time.
  storage::StableStorage* StorageFor(NodeId id) {
    return storages_[static_cast<size_t>(id)].get();
  }

  /// Calls Start() on every node (after all registrations).
  void StartAll() {
    for (auto& n : nodes_) {
      // Start() is node code: its scheduling keys on the node's stream.
      env_.SetCurrentStream(static_cast<uint32_t>(n->id()) + 1);
      n->Start();
    }
    env_.SetCurrentStream(0);
  }

  /// Runs the simulation to `t` inclusive.
  void RunUntil(SimTime t) { env_.RunUntil(t); }

  uint64_t TotalEventsExecuted() const { return env_.events_executed(); }

  SimEnvironment& env() { return env_; }
  Network& net() { return network_; }
  size_t num_nodes() const { return nodes_.size(); }
  Node* node(NodeId id) { return network_.node(id); }

 private:
  SimEnvironment env_;
  Network network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<storage::InMemoryStableStorage>> storages_;
};

}  // namespace samya::sim

#endif  // SAMYA_SIM_CLUSTER_H_
