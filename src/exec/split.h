#ifndef ACCORDION_EXEC_SPLIT_H_
#define ACCORDION_EXEC_SPLIT_H_

#include <string>
#include <vector>

namespace accordion {

/// Identifies a task: "<query>.<stage>.<seq>". The sequence number doubles
/// as the task's buffer id in upstream output buffers (paper Fig. 5).
struct TaskId {
  std::string query_id;
  int stage_id = 0;
  int task_seq = 0;

  std::string ToString() const {
    return query_id + "." + std::to_string(stage_id) + "." +
           std::to_string(task_seq);
  }

  friend bool operator==(const TaskId& a, const TaskId& b) {
    return a.query_id == b.query_id && a.stage_id == b.stage_id &&
           a.task_seq == b.task_seq;
  }
  friend bool operator<(const TaskId& a, const TaskId& b) {
    if (a.query_id != b.query_id) return a.query_id < b.query_id;
    if (a.stage_id != b.stage_id) return a.stage_id < b.stage_id;
    return a.task_seq < b.task_seq;
  }
};

/// A chunk of a base table on a storage node — tells table-scan drivers
/// where to read (paper's system split).
struct SystemSplit {
  std::string table;
  int split_index = 0;
  int split_count = 1;
  int storage_node_id = 0;
  double scale_factor = 1.0;
  /// Table channels the scan reads, in output order; empty reads every
  /// column. Set by the scan operator from its plan node.
  std::vector<int> columns;
};

/// Address of an upstream task to exchange pages with (paper's remote
/// split: node URL + task id).
struct RemoteSplit {
  int worker_id = 0;
  TaskId task;

  friend bool operator==(const RemoteSplit& a, const RemoteSplit& b) {
    return a.worker_id == b.worker_id && a.task == b.task;
  }
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_SPLIT_H_
