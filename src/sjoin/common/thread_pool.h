#ifndef SJOIN_COMMON_THREAD_POOL_H_
#define SJOIN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

/// \file
/// Fixed-size thread pool for the embarrassingly parallel work in this
/// repo: benchmark rosters and sweeps dispatch independent
/// (run, policy, sweep-point) simulator jobs onto one pool, and the
/// session scheduler fans a round's sessions out over its workers.
///
/// Deliberately work-stealing-free: a single mutex-guarded FIFO queue is
/// plenty at the granularity of one simulator run per task, and it keeps
/// the scheduler simple enough to validate under TSan. Tasks communicate
/// results through the buffers they capture, so execution order never
/// affects output; the harness exploits this to make parallel runs
/// bit-identical to serial ones.

namespace sjoin {

/// A fixed set of worker threads consuming a FIFO task queue.
///
/// A pool of size 1 spawns no workers at all: Submit executes the task
/// inline on the calling thread, so `--threads=1` reproduces the
/// historical serial code paths exactly (same thread, same order).
class ThreadPool {
 public:
  /// `num_threads` == 0 uses DefaultThreads() (hardware concurrency).
  explicit ThreadPool(int num_threads = 0);

  /// Drains the queue, then joins the workers. Every submitted task runs.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` and returns a future that becomes ready when it
  /// finishes. The library itself never throws, but tasks may run user
  /// code (e.g. test assertions) that does; anything thrown inside the
  /// task is captured and rethrown from future.get().
  std::future<void> Submit(std::function<void()> task);

  /// Fire-and-forget fast path: enqueues fn(ctx) with no future, no
  /// promise and no closure allocation — the queue node holds the two
  /// raw pointers. `fn` must not let exceptions escape (there is nowhere
  /// to route them; TaskGroup latches its tasks' errors before this
  /// layer) and `ctx` must stay valid until the task has run. Inline
  /// (size-1) pools call fn(ctx) before returning.
  void SubmitPlain(void (*fn)(void*), void* ctx);

  int num_threads() const { return num_threads_; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static int DefaultThreads();

 private:
  /// Exactly one shape is engaged: a packaged task (Submit) or a plain
  /// function-pointer task (SubmitPlain, fn != nullptr).
  struct QueueItem {
    std::packaged_task<void()> packaged;
    void (*fn)(void*) = nullptr;
    void* ctx = nullptr;

    void operator()() {
      if (fn != nullptr) {
        fn(ctx);
      } else {
        packaged();
      }
    }
  };

  void WorkerLoop();

  int num_threads_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<QueueItem> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Structured fan-out helper for parallel sections. Run() enqueues a task
/// on the pool; Wait() blocks until every task of the group has finished
/// and rethrows the first exception any of them threw.
///
/// Unlike raw Submit(), whose per-task futures callers routinely discard,
/// a group never loses a task's exception: the task runs inside a wrapper
/// that latches a throw into the group before the worker moves on. In
/// particular a task that throws while its pool is being destroyed (the
/// destructor drains the queue, so queued tasks still run) surfaces at the
/// next Wait() instead of vanishing inside an abandoned future — shutdown
/// can no longer swallow errors or terminate the process.
///
/// Submission is allocation-light: each task moves into a reusable slot
/// (the group's submission buffer, rewound whenever the group drains) and
/// reaches the pool through SubmitPlain — no packaged_task, no promise,
/// no extra closure per task. A task's captures are kept alive until its
/// slot is reused or the group dies, not destroyed at task completion.
///
/// Works with inline (size-1) pools, where Run() executes the task on the
/// calling thread and Wait() never blocks. A group is reusable: after
/// Wait() returns (or throws) it is empty and ready for the next batch.
class TaskGroup {
 public:
  /// `pool` is borrowed and must outlive every Run() call. Wait() itself
  /// never touches the pool, so a group may outlive its pool once all its
  /// tasks are queued — the pool destructor runs them, and their errors
  /// still surface at Wait().
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}

  /// Blocks until in-flight tasks finish. An unobserved task exception is
  /// dropped here (call Wait() to observe it); never throws.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task`; returns as soon as it is queued (inline pools run it
  /// in place before returning).
  void Run(std::function<void()> task);

  /// Blocks until every Run() task has finished, then rethrows the first
  /// exception recorded by any of them ("first" in completion order —
  /// tasks run concurrently, so no submission-order guarantee is made).
  void Wait();

 private:
  /// One entry of the reusable submission buffer. Slots live in a deque
  /// so their addresses stay stable while new ones are appended (workers
  /// hold raw slot pointers through SubmitPlain).
  struct Slot {
    TaskGroup* group = nullptr;
    std::function<void()> work;
  };

  static void InvokeSlot(void* raw);

  ThreadPool& pool_;
  std::mutex mutex_;
  std::condition_variable done_;
  std::size_t pending_ = 0;
  std::exception_ptr first_error_;
  std::deque<Slot> slots_;
  std::size_t next_slot_ = 0;
};

/// Runs body(i) for every i in [begin, end) on the pool, splitting the
/// range into contiguous chunks (at most 4 per worker so uneven bodies
/// still balance). Blocks until every iteration has finished; if any
/// bodies threw, rethrows the first (in chunk order) afterwards.
void ParallelFor(ThreadPool& pool, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& body);

}  // namespace sjoin

#endif  // SJOIN_COMMON_THREAD_POOL_H_
