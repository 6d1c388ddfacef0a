#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/check.hpp"

namespace maopt {
namespace {

TEST(ThreadPool, RunsSubmittedTask) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto fut = pool.submit([] { return 7; });
  EXPECT_EQ(fut.get(), 7);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIterations) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8, [&](std::size_t i) {
        if (i == 3) throw std::runtime_error("task failed");
      }),
      std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futs;
  for (int i = 1; i <= 500; ++i) futs.push_back(pool.submit([&sum, i] { sum += i; }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 500L * 501 / 2);
}

TEST(ThreadPool, ParallelForDrainsAllChunksBeforeRethrow) {
  // Regression: parallel_for used to rethrow from the first failed future
  // while later chunks could still be queued or running — and those chunks
  // reference `fn`, which dies when parallel_for unwinds. The contract is
  // now: every chunk (even after a failure) completes before the rethrow,
  // so no index is ever visited after parallel_for returns.
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  std::atomic<bool> returned{false};
  std::atomic<bool> late_visit{false};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (returned.load()) late_visit = true;
                          if (i == 0) throw std::runtime_error("first chunk fails fast");
                          std::this_thread::sleep_for(std::chrono::milliseconds(1));
                          visited.fetch_add(1);
                        }),
      std::runtime_error);
  returned = true;
  // Give any (incorrectly) still-running chunk time to trip the flag.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(late_visit.load());
  // 4 workers x 16-index chunks, one index threw and skipped its chunk tail.
  EXPECT_EQ(visited.load(), 48);
}

TEST(ThreadPool, ThrowingWorkerUnderConcurrentSubmits) {
  // A worker throwing from parallel_for must not poison unrelated tasks
  // that race with it through the same queue, and the pool must stay
  // usable afterwards.
  constexpr int kSideTasks = 50;
  ThreadPool pool(3);
  std::atomic<bool> submitter_done{false};
  std::atomic<int> side_tasks_ok{0};
  std::thread submitter([&] {
    std::vector<std::future<int>> futs;
    futs.reserve(kSideTasks);
    for (int i = 0; i < kSideTasks; ++i) {
      futs.push_back(pool.submit([] { return 1; }));
      std::this_thread::yield();
    }
    for (auto& f : futs) side_tasks_ok += f.get();
    submitter_done = true;
  });
  // Keep throwing parallel_for rounds racing through the queue until every
  // side task made it (at least 10 rounds even if the submitter wins the
  // race outright; hard cap so a wedged pool fails instead of hanging).
  for (int round = 0; round < 10 || (!submitter_done.load() && round < 10000); ++round) {
    EXPECT_THROW(
        pool.parallel_for(24,
                          [&](std::size_t i) {
                            if (i % 8 == 3) throw std::runtime_error("worker failure");
                          }),
        std::runtime_error);
  }
  submitter.join();
  EXPECT_EQ(side_tasks_ok.load(), kSideTasks);
  // Pool still fully functional after repeated failures.
  std::atomic<int> hits{0};
  pool.parallel_for(10, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 10);
}

TEST(ThreadPool, ParallelForRejectsNullFunction) {
  ThreadPool pool(2);
  std::function<void(std::size_t)> null_fn;
  EXPECT_THROW(pool.parallel_for(4, null_fn), ContractViolation);
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(2);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  pool.parallel_for(4, [&](std::size_t) {
    const int now = ++running;
    int expect = peak.load();
    while (now > expect && !peak.compare_exchange_weak(expect, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    --running;
  });
  EXPECT_GE(peak.load(), 2);
}

// --- Team ---

// Runs `phases` phases of `chunks` chunks each; every chunk checks that the
// previous phase had fully finished when it started, and records its rank.
void run_counted_phases(Team& team, std::size_t phases, std::size_t chunks,
                        std::vector<std::atomic<int>>& hits, std::atomic<int>& order_errors,
                        std::vector<std::atomic<int>>& rank_hits) {
  std::atomic<std::size_t> finished{0};  // chunks finished over all phases
  std::vector<Team::ChunkFn> fns;
  fns.reserve(phases);
  for (std::size_t p = 0; p < phases; ++p)
    fns.push_back([&, p](std::size_t chunk, std::size_t rank) {
      if (finished.load() < p * chunks) ++order_errors;
      ++hits[p * chunks + chunk];
      ++rank_hits[rank];
      ++finished;
    });
  std::vector<Team::Phase> list;
  for (std::size_t p = 0; p < phases; ++p) list.push_back({chunks, &fns[p]});
  team.run(list);
}

TEST(Team, RunsEveryChunkOncePhaseAfterPhase) {
  ThreadPool pool(3);
  Team team(&pool);
  EXPECT_EQ(team.size(), 4u);
  const std::size_t phases = 40, chunks = 7;
  std::vector<std::atomic<int>> hits(phases * chunks);
  std::vector<std::atomic<int>> rank_hits(team.size());
  std::atomic<int> order_errors{0};
  for (int run = 0; run < 3; ++run)
    run_counted_phases(team, phases, chunks, hits, order_errors, rank_hits);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
  EXPECT_EQ(order_errors.load(), 0);
}

TEST(Team, TeamOfOneRunsEverythingOnTheCaller) {
  Team team(nullptr);
  EXPECT_EQ(team.size(), 1u);
  std::vector<std::atomic<int>> hits(10);
  std::vector<std::atomic<int>> rank_hits(1);
  std::atomic<int> order_errors{0};
  run_counted_phases(team, 2, 5, hits, order_errors, rank_hits);
  EXPECT_EQ(rank_hits[0].load(), 10);
  EXPECT_EQ(order_errors.load(), 0);
}

TEST(Team, RunCompletesWhileEveryWorkerIsBusy) {
  // The workers never join: the caller runs every chunk, and the helper
  // tasks that start after the Team is gone find it closed.
  ThreadPool pool(2);
  std::latch release(1);
  auto a = pool.submit([&release] { release.wait(); });
  auto b = pool.submit([&release] { release.wait(); });
  std::vector<std::atomic<int>> hits(12);
  std::vector<std::atomic<int>> rank_hits(3);
  std::atomic<int> order_errors{0};
  {
    Team team(&pool);
    run_counted_phases(team, 3, 4, hits, order_errors, rank_hits);
  }
  release.count_down();
  a.get();
  b.get();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(rank_hits[0].load(), 12);
  EXPECT_EQ(order_errors.load(), 0);
  pool.parallel_for(4, [](std::size_t) {});  // the pool still works afterwards
}

TEST(Team, ExceptionSkipsLaterPhasesAndIsRethrown) {
  ThreadPool pool(3);
  Team team(&pool);
  std::atomic<int> later{0};
  const Team::ChunkFn fail = [](std::size_t chunk, std::size_t) {
    if (chunk == 2) throw std::runtime_error("chunk 2");
  };
  const Team::ChunkFn count = [&later](std::size_t, std::size_t) { ++later; };
  EXPECT_THROW(team.run({{5, &fail}, {5, &count}, {5, &count}}), std::runtime_error);
  EXPECT_EQ(later.load(), 0);
  // The team is usable again after a failed run.
  team.run({{6, &count}});
  EXPECT_EQ(later.load(), 6);
}

TEST(Team, RejectsAnEmptyPhase) {
  Team team(nullptr);
  const Team::ChunkFn noop = [](std::size_t, std::size_t) {};
  EXPECT_THROW(team.run({{0, &noop}}), ContractViolation);
  EXPECT_THROW(team.run({{3, nullptr}}), ContractViolation);
}

}  // namespace
}  // namespace maopt
