#pragma once
// Per-worker task deque for the work-stealing pool. The pool's injection
// queue for external submits is one more WorkDeque that no worker owns:
// producers push, and a dry worker moves all of it into its own deque.
//
// The owner pushes and pops at the back (LIFO: newest first, so nested
// skeletons run depth-first exactly as with the old single global deque).
// Thieves steal from the front (oldest first), which hands a stealer the
// root of the largest remaining subtree and leaves the owner's cache-hot
// tail alone.
//
// Each deque carries its own lock. In steady state a worker only ever takes
// its own — uncontended — lock, so the cross-worker contention of the old
// single-mutex pool is confined to actual steals, which happen only when a
// worker runs dry.

#include <algorithm>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "runtime/task.hpp"

namespace askel {

class alignas(64) WorkDeque {
 public:
  void push(Task task) {
    std::lock_guard lock(mu_);
    tasks_.push_back(std::move(task));
  }

  /// Owner-side pop: newest task (depth-first execution order).
  bool pop(Task& out) {
    std::lock_guard lock(mu_);
    if (tasks_.empty()) return false;
    out = std::move(tasks_.back());
    tasks_.pop_back();
    return true;
  }

  /// Thief-side batch pop: the oldest task into `out`, plus up to half of
  /// the remainder (capped) into `extra`. Stealing a batch amortizes the
  /// wake-up + steal cost over several tasks instead of paying it per task.
  /// `extra` is filled oldest-first; the caller re-pushes it into its own
  /// deque and must NOT hold any deque lock (two-deque lock nesting would
  /// deadlock against a symmetric thief).
  bool steal_batch(Task& out, std::vector<Task>& extra, std::size_t cap = 32) {
    std::lock_guard lock(mu_);
    if (tasks_.empty()) return false;
    out = std::move(tasks_.front());
    tasks_.pop_front();
    std::size_t take = std::min(cap, tasks_.size() / 2);
    for (; take > 0; --take) {
      extra.push_back(std::move(tasks_.front()));
      tasks_.pop_front();
    }
    return true;
  }

  /// Move every task into `out`, oldest first (the pool's injection drain).
  bool take_all(std::vector<Task>& out) {
    std::lock_guard lock(mu_);
    if (tasks_.empty()) return false;
    for (Task& t : tasks_) out.push_back(std::move(t));
    tasks_.clear();
    return true;
  }

  void push_batch(std::vector<Task>& batch) {
    std::lock_guard lock(mu_);
    for (Task& t : batch) tasks_.push_back(std::move(t));
    batch.clear();
  }

 private:
  mutable std::mutex mu_;
  std::deque<Task> tasks_;
};

}  // namespace askel
