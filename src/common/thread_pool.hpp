// Fixed-size thread pool used to run the N_act actor trainings and SPICE
// simulations of one MA-Opt iteration concurrently (the paper implements
// this with N_act OS processes; threads give the same parallel structure).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"

namespace maopt {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the returned future yields its result (or exception).
  /// Submitting to a pool whose destructor has begun is a contract
  /// violation (the task could never run).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      const MutexLock lock(mutex_);
      MAOPT_CHECK(!stop_, "ThreadPool::submit: pool is shutting down");
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run `fn(i)` for i in [0, n) across the pool and wait for completion.
  /// Indices are dispatched as ceil(n / workers) contiguous chunks (one task
  /// per worker). Exceptions from tasks are rethrown (the first encountered,
  /// in chunk order); a throwing index skips the remainder of its own chunk
  /// only. All chunks — including ones that threw — are waited on before
  /// this returns or rethrows, so `fn` and everything it captures are
  /// guaranteed unreferenced afterwards.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::function<void()>> tasks_ MAOPT_GUARDED_BY(mutex_);
  CondVar cv_;
  bool stop_ MAOPT_GUARDED_BY(mutex_) = false;
};

/// The calling thread plus whichever of a pool's workers join it, running
/// a chain of phases of fine-grained work (the steps of a critic training
/// round; DESIGN §12). Each phase is a fixed list of chunks that the
/// participants claim one at a time; a phase starts once every chunk of the
/// one before it has finished, and the participant that finishes a phase's
/// last chunk opens the next one and works on, so no phase change waits for
/// a sleeping thread to wake. The caller always works and waits only for
/// chunks already claimed, never for a worker to arrive, so a busy or late
/// worker cannot hang a run: at worst the caller runs every chunk itself.
/// Workers join once per Team (one pool task each) and sleep on an atomic
/// while they have nothing to claim; nothing spins.
///
/// Which participant runs which chunk varies from run to run, so a chunk
/// must give the same result whoever runs it; `rank` (0 for the caller,
/// 1..size()-1 for the workers) only indexes per-participant scratch.
class Team {
 public:
  using ChunkFn = std::function<void(std::size_t chunk, std::size_t rank)>;
  struct Phase {
    std::size_t chunks;  ///< >= 1
    const ChunkFn* fn;
  };

  /// A team of the caller and `pool`'s workers; nullptr makes the caller
  /// a team of one. `pool` must outlive the Team.
  explicit Team(ThreadPool* pool);
  /// Releases the workers; ones that never joined skip their task.
  ~Team();

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Number of ranks: the pool's workers plus the caller.
  std::size_t size() const { return size_; }

  /// Runs the phases in order, each phase's fn(chunk, rank) once for every
  /// chunk in [0, chunks), and returns when the last has finished. If a
  /// chunk throws, no chunk of a later phase runs (chunks of its own phase
  /// may), and one of the exceptions is rethrown when the run ends.
  void run(const std::vector<Phase>& phases);

 private:
  struct State;
  std::shared_ptr<State> state_;
  std::size_t size_;
};

}  // namespace maopt
