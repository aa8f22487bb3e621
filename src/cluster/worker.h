#ifndef ACCORDION_CLUSTER_WORKER_H_
#define ACCORDION_CLUSTER_WORKER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cluster/rpc_bus.h"
#include "exec/task.h"

namespace accordion {

/// Simulated storage tier: per-storage-node NIC governors plus split
/// opening. Table data comes from the deterministic TPC-H generator
/// (equivalent to reading the pre-split CSV files of the paper's setup).
class StorageService {
 public:
  StorageService(int num_nodes, const NodeConfig& node_config,
                 const EngineConfig* engine_config);

  /// Opens a split projected onto `split.columns`; the returned source
  /// charges the storage node's NIC (and the reader's, via `reader_nic`)
  /// per projected page.
  std::unique_ptr<PageSource> OpenSplit(const SystemSplit& split,
                                        ResourceGovernor* reader_nic);

  int num_nodes() const { return static_cast<int>(nics_.size()); }
  ResourceGovernor* nic(int node) { return nics_[node].get(); }

 private:
  const EngineConfig* engine_config_;
  std::vector<std::unique_ptr<ResourceGovernor>> nics_;
};

/// One simulated compute node: task manager + CPU/NIC governors
/// (paper: c5.2xlarge instances). Owns its tasks; all control-plane calls
/// arrive through the RpcBus.
class WorkerNode {
 public:
  WorkerNode(int id, const NodeConfig& node_config,
             const EngineConfig* engine_config, RpcBus* bus,
             StorageService* storage);

  int id() const { return id_; }
  ResourceGovernor* cpu() { return &cpu_; }
  ResourceGovernor* nic() { return &nic_; }

  // --- task manager (invoked by RpcBus) ---
  Status CreateTask(TaskSpec spec, NextSplitFn next_split);
  /// Shared so that a task the coordinator releases mid-call stays
  /// valid until the call returns.
  std::shared_ptr<Task> GetTask(const TaskId& task_id);
  /// Removes and destroys a task on the calling thread, after waiting out
  /// calls that still hold it. Never call from a pool thread.
  Status RemoveTask(const TaskId& task_id);
  int NumTasks() const;

  /// Simulated node death (invoked by RpcBus::CrashWorker): aborts every
  /// task so driver threads wind down, and refuses new tasks. Idempotent.
  void Crash();
  bool crashed() const { return crashed_.load(); }

 private:
  std::atomic<bool> crashed_{false};
  int id_;
  const EngineConfig* engine_config_;
  RpcBus* bus_;
  StorageService* storage_;
  ResourceGovernor cpu_;
  ResourceGovernor nic_;

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Task>> tasks_;
};

}  // namespace accordion

#endif  // ACCORDION_CLUSTER_WORKER_H_
