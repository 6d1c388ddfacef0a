#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <utility>

namespace maopt {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      cv_.wait(lock, [this]() MAOPT_REQUIRES(mutex_) { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  MAOPT_CHECK(static_cast<bool>(fn), "ThreadPool::parallel_for: null function");
  // Chunked dispatch: one task per worker covering a contiguous index range,
  // so tiny per-index bodies pay queue/future overhead once per chunk rather
  // than once per index.
  const std::size_t chunks = std::min(n, workers_.size());
  const std::size_t per_chunk = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * per_chunk;
    const std::size_t hi = std::min(n, lo + per_chunk);
    if (lo >= hi) break;
    futures.push_back(submit([&fn, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  // Drain EVERY chunk before propagating a failure: the tasks capture `fn`
  // by reference, so returning (or throwing) while any chunk is still
  // queued or running would leave workers touching a dead object. The first
  // exception (in chunk order, which is deterministic) wins; later ones are
  // swallowed after their chunks finish.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

// ----------------------------------------------------------------------- Team

namespace {

// The claim word: phase epoch (32 bits) | next chunk (16) | chunk count
// (16). A participant claims chunk `next` by bumping it with a
// compare-exchange, which fails once the phase has moved on, so a late
// worker never runs a chunk with another phase's word. Between runs the
// word has a count of 0: nothing to claim. While counts stay below
// kMaxChunks, no word equals kClosed.
constexpr std::uint64_t kClosed = ~std::uint64_t{0};
constexpr std::uint64_t kMaxChunks = 0xffff;
constexpr std::uint64_t kNextOne = std::uint64_t{1} << 16;

std::uint32_t epoch_of(std::uint64_t word) { return static_cast<std::uint32_t>(word >> 32); }
std::size_t next_chunk(std::uint64_t word) { return (word >> 16) & kMaxChunks; }
std::size_t chunk_count(std::uint64_t word) { return word & kMaxChunks; }
std::uint64_t make_word(std::uint32_t epoch, std::size_t chunks) {
  return (std::uint64_t{epoch} << 32) | chunks;
}

}  // namespace

struct Team::State {
  std::atomic<std::uint64_t> claim{0};
  // Chunks of the open phase that have finished.
  std::atomic<std::uint32_t> done{0};
  // The open run: its phases and the epoch of its first phase. Written by
  // the caller before it publishes the first phase's word; read only by a
  // participant holding a claimed chunk, which keeps the run open.
  const std::vector<Phase>* phases = nullptr;
  std::uint32_t first_epoch = 0;
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written by the first failing chunk only

  // Claims and runs chunks until the word shows none left to claim (the
  // open phase is all claimed, or no run is open); returns that word.
  std::uint64_t work(std::uint64_t word, std::size_t rank) {
    while (word != kClosed && next_chunk(word) < chunk_count(word)) {
      if (!claim.compare_exchange_weak(word, word + kNextOne, std::memory_order_acq_rel,
                                       std::memory_order_acquire))
        continue;  // `word` now holds the current value
      const std::size_t index = epoch_of(word) - first_epoch;
      // After a failure the chain still runs to its end, but skips its
      // chunks: a later phase may depend on the failed one.
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          (*(*phases)[index].fn)(next_chunk(word), rank);
        } catch (...) {
          if (!failed.exchange(true, std::memory_order_relaxed))
            error = std::current_exception();
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunk_count(word)) {
        // The phase's last chunk: open the next phase, or end the run with
        // an empty word the caller is waiting for.
        done.store(0, std::memory_order_relaxed);
        const std::size_t chunks = index + 1 < phases->size() ? (*phases)[index + 1].chunks : 0;
        claim.store(make_word(epoch_of(word) + 1, chunks), std::memory_order_release);
        claim.notify_all();
      }
      word = claim.load(std::memory_order_acquire);
    }
    return word;
  }
};

Team::Team(ThreadPool* pool)
    : state_(std::make_shared<State>()), size_(pool != nullptr ? pool->size() + 1 : 1) {
  for (std::size_t rank = 1; rank < size_; ++rank) {
    // The task owns a reference to the state, so a worker that starts after
    // the Team is gone still finds it (closed) and returns at once.
    pool->submit([state = state_, rank] {
      std::uint64_t word = state->claim.load(std::memory_order_acquire);
      while ((word = state->work(word, rank)) != kClosed) {
        state->claim.wait(word, std::memory_order_acquire);
        word = state->claim.load(std::memory_order_acquire);
      }
    });
  }
}

Team::~Team() {
  state_->claim.store(kClosed, std::memory_order_release);
  state_->claim.notify_all();
}

void Team::run(const std::vector<Phase>& phases) {
  if (phases.empty()) return;
  for (const Phase& phase : phases)
    MAOPT_CHECK(phase.chunks >= 1 && phase.chunks < kMaxChunks && phase.fn != nullptr,
                "Team::run: a phase needs 1 to 65534 chunks and a function");
  MAOPT_CHECK(phases.size() < (std::uint64_t{1} << 31), "Team::run: too many phases");
  State& s = *state_;
  // No run is open, so the word is an empty one and no participant reads
  // the fields written here until the first phase is published.
  const std::uint32_t first = epoch_of(s.claim.load(std::memory_order_relaxed)) + 1;
  const std::uint32_t end = first + static_cast<std::uint32_t>(phases.size());
  s.phases = &phases;
  s.first_epoch = first;
  std::uint64_t word = make_word(first, phases.front().chunks);
  s.claim.store(word, std::memory_order_release);
  if (size_ > 1) s.claim.notify_all();
  while ((word = s.work(word, 0)) != make_word(end, 0)) {
    s.claim.wait(word, std::memory_order_acquire);
    word = s.claim.load(std::memory_order_acquire);
  }
  if (s.failed.load(std::memory_order_relaxed)) {
    s.failed.store(false, std::memory_order_relaxed);
    std::rethrow_exception(std::exchange(s.error, nullptr));
  }
}

}  // namespace maopt
