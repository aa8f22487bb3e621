#include "cluster/worker.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"

namespace accordion {
namespace {

/// Wraps a PageSource, charging producer (storage) and consumer (worker)
/// NIC bandwidth for every page read — the data path from storage nodes
/// to compute nodes in the paper's cluster. Reserves, never blocks: the
/// later of the two grants is the page's arrival (ready_at_us).
class NicChargingPageSource : public PageSource {
 public:
  NicChargingPageSource(std::unique_ptr<PageSource> inner,
                        ResourceGovernor* storage_nic,
                        ResourceGovernor* reader_nic)
      : inner_(std::move(inner)),
        storage_nic_(storage_nic),
        reader_nic_(reader_nic) {}

  PagePtr Next() override {
    PagePtr page = inner_->Next();
    ready_at_us_ = 0;
    if (page != nullptr && page->ByteSize() > 0) {
      double bytes = static_cast<double>(page->ByteSize());
      ready_at_us_ = storage_nic_->ReserveMicros(bytes);
      if (reader_nic_ != nullptr) {
        ready_at_us_ =
            std::max(ready_at_us_, reader_nic_->ReserveMicros(bytes));
      }
    }
    return page;
  }

  int64_t TotalRows() const override { return inner_->TotalRows(); }
  int64_t ready_at_us() const override { return ready_at_us_; }

 private:
  std::unique_ptr<PageSource> inner_;
  ResourceGovernor* storage_nic_;
  ResourceGovernor* reader_nic_;
  int64_t ready_at_us_ = 0;
};

}  // namespace

StorageService::StorageService(int num_nodes, const NodeConfig& node_config,
                               const EngineConfig* engine_config)
    : engine_config_(engine_config) {
  nics_.reserve(num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    nics_.push_back(std::make_unique<ResourceGovernor>(
        "storage" + std::to_string(n) + ".nic", node_config.nic_bytes_per_sec,
        node_config.nic_burst_bytes));
  }
}

std::unique_ptr<PageSource> StorageService::OpenSplit(
    const SystemSplit& split, ResourceGovernor* reader_nic) {
  ACC_CHECK(split.storage_node_id >= 0 &&
            split.storage_node_id < num_nodes())
      << "split references unknown storage node " << split.storage_node_id;
  // NULL injection is keyed on the full row, so it needs every column and
  // projects afterwards; otherwise only the projected columns are made.
  const bool inject = engine_config_->null_injection_rate > 0;
  std::unique_ptr<PageSource> generator = std::make_unique<GeneratorPageSource>(
      split.table, split.scale_factor, split.split_index, split.split_count,
      engine_config_->batch_rows,
      inject ? std::vector<int>{} : split.columns);
  if (inject) {
    generator = std::make_unique<NullInjectingPageSource>(
        std::move(generator), engine_config_->null_injection_rate,
        engine_config_->null_injection_seed);
    if (!split.columns.empty()) {
      generator = std::make_unique<ProjectingPageSource>(std::move(generator),
                                                         split.columns);
    }
  }
  // The NIC carries the projected pages only (columnar reads).
  return std::make_unique<NicChargingPageSource>(
      std::move(generator), nics_[split.storage_node_id].get(), reader_nic);
}

WorkerNode::WorkerNode(int id, const NodeConfig& node_config,
                       const EngineConfig* engine_config, RpcBus* bus,
                       StorageService* storage)
    : id_(id),
      engine_config_(engine_config),
      bus_(bus),
      storage_(storage),
      cpu_("worker" + std::to_string(id) + ".cpu", node_config.cpu_cores,
           node_config.cpu_burst_seconds),
      nic_("worker" + std::to_string(id) + ".nic",
           node_config.nic_bytes_per_sec, node_config.nic_burst_bytes) {}

Status WorkerNode::CreateTask(TaskSpec spec, NextSplitFn next_split) {
  TaskApis apis;
  apis.next_split = std::move(next_split);
  apis.open_split = [this](const SystemSplit& split) {
    return storage_->OpenSplit(split, &nic_);
  };
  apis.fetch_pages = [this](const RemoteSplit& split, int buffer_id,
                            int64_t start_sequence, int max_pages,
                            int64_t* ready_at_us) {
    return bus_->GetPages(split, buffer_id, start_sequence, max_pages, &nic_,
                          ready_at_us);
  };

  std::string key = spec.id.ToString();
  std::lock_guard<std::mutex> lock(mutex_);
  if (crashed_.load()) {
    return Status::Unavailable("worker " + std::to_string(id_) + " is down");
  }
  if (tasks_.count(key) > 0) {
    return Status::AlreadyExists("task " + key + " already scheduled");
  }
  tasks_.emplace(key, std::make_shared<Task>(std::move(spec), std::move(apis),
                                             &cpu_, &nic_, engine_config_));
  return Status::OK();
}

std::shared_ptr<Task> WorkerNode::GetTask(const TaskId& task_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tasks_.find(task_id.ToString());
  return it == tasks_.end() ? nullptr : it->second;
}

Status WorkerNode::RemoveTask(const TaskId& task_id) {
  std::shared_ptr<Task> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tasks_.find(task_id.ToString());
    if (it == tasks_.end()) {
      return Status::NotFound("no task " + task_id.ToString());
    }
    doomed = std::move(it->second);
    tasks_.erase(it);
  }
  // Calls that looked the task up hold it only for their duration; wait
  // them out so the task is destroyed here, outside the map lock. Its
  // destructor retires scheduler units, which a pool thread (where those
  // calls may run) must never do.
  while (doomed.use_count() > 1) std::this_thread::yield();
  doomed.reset();
  return Status::OK();
}

int WorkerNode::NumTasks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(tasks_.size());
}

void WorkerNode::Crash() {
  if (crashed_.exchange(true)) return;
  std::vector<std::shared_ptr<Task>> tasks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& entry : tasks_) tasks.push_back(entry.second);
  }
  // Abort outside the map lock: Abort() only flips flags, but driver
  // threads it unblocks may call back into GetTask.
  for (const auto& t : tasks) t->Abort();
}

}  // namespace accordion
