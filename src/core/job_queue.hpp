// Asynchronous job queue: one thread pool shared by many concurrent
// measurement jobs, each consumed as a stream (extension).
//
// The sweep engine's batch entrypoints historically blocked until the whole
// batch finished, which is the wrong shape for the workloads the paper
// motivates -- a BIST cheap enough to run continuously should serve a host
// that wants results *as they complete*: a lot monitor updating yield
// mid-lot, a dictionary build reporting progress, a process-shard runner
// forwarding finished dice over the wire.  This module supplies the
// primitive those callers share:
//
//   * `job_queue` owns the worker threads.  Any number of jobs can be
//     submitted concurrently (from any thread); workers claim one task per
//     job in rotation, so one pool serves many engines without
//     oversubscribing the machine and no job starves behind another.
//   * `job_handle<R>` is the caller's view of one submitted job, and its
//     in-order cursor is the one way to watch it: the whole result vector
//     (`results`), items in index order as they complete (`next_in_order`
//     / `try_next_in_order`, the latter paired with the submit-time
//     `on_published` notifier), cooperative cancellation and
//     worker-exception capture.
//
// The determinism contract of the synchronous paths is preserved exactly:
// a job's items are index-addressed slots whose values depend only on the
// item index (seeds are derived per index, never from scheduling), so the
// *set* of results is bit-identical at any thread count and any completion
// order -- streaming changes when a caller sees an item, never its value.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace bistna::core {

/// Lifecycle of a job.  `running` covers the whole span from submission to
/// the last item being accounted for; the other three are terminal.
enum class job_state {
    running,
    succeeded, ///< every item completed
    cancelled, ///< cancel() (or queue destruction) skipped at least one item
    failed,    ///< a worker threw; the first exception is captured
};

namespace detail {

/// Typed state shared between a job's handle(s) and the worker closures:
/// the result slots, their completion flags and the terminal bookkeeping.
/// The queue itself never sees this type -- workers reach it only through
/// the type-erased task closure.
template <typename R>
struct job_channel {
    explicit job_channel(std::size_t item_count)
        : results(item_count), item_completed(item_count, 0) {}

    mutable std::mutex mutex;
    std::condition_variable cv;

    std::vector<R> results;             ///< slot per item, written once
    std::vector<char> item_completed;   ///< slot flags (avoids vector<bool> races)
    std::size_t completed_count = 0;    ///< items finished with a value
    std::size_t accounted = 0;          ///< completed + skipped + failed items
    job_state state = job_state::running;
    std::exception_ptr error;

    /// Checked by tasks before running (claimed-but-unstarted work is
    /// skipped); in-flight groups finish normally and still publish.
    std::atomic<bool> cancel_requested{false};

    /// Optional post-publish notifier, fixed at submission.  Runs on the
    /// accounting worker thread AFTER the channel lock is released, so
    /// everything the event that triggered it made visible (new items, a
    /// terminal state flip) is observable from the callback or from any
    /// thread it wakes.
    std::function<void()> on_published;

    /// Publish items [first, first + group.size()) to their slots under
    /// the lock, finalizing the job if this accounts for the last item.
    void complete_items(std::size_t first, std::vector<R>&& group) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            for (std::size_t l = 0; l < group.size(); ++l) {
                results[first + l] = std::move(group[l]);
                item_completed[first + l] = 1;
            }
            completed_count += group.size();
            account(group.size());
        }
        if (on_published) {
            on_published();
        }
    }

    /// Account `count` items that will never complete (cancel skip).
    void skip_items(std::size_t count) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            account(count);
        }
        if (on_published) {
            on_published();
        }
    }

    /// Account `count` items lost to a worker exception; the first
    /// exception wins, and the rest of the job is drained via the cancel
    /// flag (matching the synchronous engine's first-error semantics).
    void fail_items(std::size_t count, std::exception_ptr exception) {
        cancel_requested.store(true, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (!error) {
                error = std::move(exception);
            }
            account(count);
        }
        if (on_published) {
            on_published();
        }
    }

private:
    /// Callers hold `mutex`.  Finalizes the terminal state once every item
    /// is accounted for and wakes every waiter (in-order cursors see their
    /// item land; wait() sees the state flip).
    void account(std::size_t count) {
        accounted += count;
        if (accounted == results.size() && state == job_state::running) {
            state = error                             ? job_state::failed
                    : completed_count < results.size() ? job_state::cancelled
                                                       : job_state::succeeded;
        }
        cv.notify_all();
    }
};

/// Count `n` computed items on the `job_queue.items_computed` telemetry
/// counter (a no-op unless a registry is attached).
void count_items_computed(std::size_t n) noexcept;

/// Type-erased job record the queue's workers schedule from.  A job's
/// tasks are claimed in index order under the queue lock; the typed closure
/// owns all result bookkeeping.
struct job_record {
    std::size_t task_count = 0;
    std::size_t next_task = 0;                  ///< guarded by the queue mutex
    std::function<void(std::size_t)> run_task;  ///< must not throw
    std::function<void()> request_cancel;       ///< flips the channel's flag
    std::uint64_t enqueued_ns = 0;              ///< telemetry wait-time anchor
};

} // namespace detail

/// Caller's view of one submitted job.  Thin shared handle: copies refer
/// to the same job; all members are safe to call from any thread.  The
/// handle never blocks the job -- dropping every copy simply detaches the
/// caller (the queue still drains the work).
template <typename R>
class job_handle {
public:
    /// One item delivered by the in-order cursor.
    struct streamed_item {
        std::size_t index = 0; ///< the item's slot in submission order
        R value{};
    };

    job_handle() = default;

    explicit job_handle(std::shared_ptr<detail::job_channel<R>> channel)
        : channel_(std::move(channel)) {}

    bool valid() const noexcept { return channel_ != nullptr; }

    job_state state() const {
        auto& ch = channel();
        std::lock_guard<std::mutex> lock(ch.mutex);
        return ch.state;
    }

    bool finished() const { return state() != job_state::running; }

    /// The first worker exception, if any (null while running or on a
    /// clean finish).
    std::exception_ptr error() const {
        auto& ch = channel();
        std::lock_guard<std::mutex> lock(ch.mutex);
        return ch.error;
    }

    /// Request cooperative cancellation: tasks not yet started are
    /// skipped; items already in flight finish normally and still publish.
    /// Idempotent, safe from any thread (including the on_published
    /// notifier).
    void cancel() noexcept {
        if (channel_) {
            channel_->cancel_requested.store(true, std::memory_order_relaxed);
        }
    }

    /// Whether cancellation was requested, by cancel() on any copy of this
    /// handle, a worker exception or the queue's destructor.
    bool cancel_requested() const noexcept {
        return channel_ && channel_->cancel_requested.load(std::memory_order_relaxed);
    }

    /// Block until the job reaches a terminal state (all items accounted
    /// for).  Does not move the in-order cursor.
    void wait() const {
        auto& ch = channel();
        std::unique_lock<std::mutex> lock(ch.mutex);
        ch.cv.wait(lock, [&] { return ch.state != job_state::running; });
    }

    /// Pull the next item in SUBMISSION-INDEX order, blocking until that
    /// item completes: call k delivers item k, however the scheduler
    /// interleaved the work, so whatever a consumer emits from the items (a
    /// shard worker's frames, a diagnosed lot's store appends) has the same
    /// byte order at every thread/lane count.  Returns nullopt once every
    /// item was delivered, or -- on a cancelled or failed job -- at the
    /// first item that will never complete (an in-order consumer cannot
    /// skip a hole).  The cursor is local to this handle copy; do not mix
    /// with the consuming results() && overload.
    std::optional<streamed_item> next_in_order() {
        auto& ch = channel();
        std::unique_lock<std::mutex> lock(ch.mutex);
        if (ordered_next_ >= ch.results.size()) {
            return std::nullopt;
        }
        ch.cv.wait(lock, [&] {
            return ch.item_completed[ordered_next_] || ch.state != job_state::running;
        });
        if (!ch.item_completed[ordered_next_]) {
            return std::nullopt;
        }
        const std::size_t index = ordered_next_++;
        return streamed_item{index, ch.results[index]};
    }

    /// Non-blocking next_in_order(): the cursor's item when it has already
    /// completed, nullopt otherwise.  A nullopt alone does not distinguish
    /// "not computed yet" from "will never complete" -- an event-driven
    /// consumer (the service daemon's session loop, which must never block
    /// on one client's job) combines it with finished(): once the job is
    /// terminal and try_next_in_order() still returns nullopt, the cursor
    /// sits on a hole and no further in-order item will ever arrive.
    std::optional<streamed_item> try_next_in_order() {
        auto& ch = channel();
        std::lock_guard<std::mutex> lock(ch.mutex);
        if (ordered_next_ >= ch.results.size() || !ch.item_completed[ordered_next_]) {
            return std::nullopt;
        }
        const std::size_t index = ordered_next_++;
        return streamed_item{index, ch.results[index]};
    }

    /// Wait, then return the full result vector in item order.  Rethrows
    /// the first worker exception of a failed job; throws
    /// configuration_error on a cancelled job (its slots have holes -- the
    /// in-order cursor sees the partial outcome).
    /// This is the synchronous way to run a job: submit, then results().
    std::vector<R> results() const& {
        wait();
        auto& ch = channel();
        std::lock_guard<std::mutex> lock(ch.mutex);
        throw_unless_succeeded(ch);
        return ch.results;
    }

    /// Consuming overload for a handle that dies with the call (the
    /// `submit(...).results()` shape): the result store is moved out
    /// instead of copied.  Surviving copies of the handle must not read
    /// results afterwards.
    std::vector<R> results() && {
        wait();
        auto& ch = channel();
        std::lock_guard<std::mutex> lock(ch.mutex);
        throw_unless_succeeded(ch);
        return std::move(ch.results);
    }

private:
    detail::job_channel<R>& channel() const {
        BISTNA_EXPECTS(channel_ != nullptr, "empty job_handle");
        return *channel_;
    }

    /// Callers hold the channel mutex.
    static void throw_unless_succeeded(detail::job_channel<R>& ch) {
        if (ch.state == job_state::failed) {
            std::rethrow_exception(ch.error);
        }
        if (ch.state == job_state::cancelled) {
            throw configuration_error("job_queue: results() on a cancelled job");
        }
    }

    std::shared_ptr<detail::job_channel<R>> channel_;
    /// next_in_order() cursor (handle-local: each copy walks its own).
    std::size_t ordered_next_ = 0;
};

/// RAII companion for a streaming consumer: cancels the job and waits for
/// its terminal state on scope exit.  A job's task closures reference
/// whatever the submitting engine owns, so a consumer whose loop can throw
/// (classifiers, observers) must pin this guard above the engine-using
/// scope -- otherwise stack unwinding destroys the engine while workers on
/// a *shared* queue are still running its closures.  No-op overhead when
/// the job already finished.
template <typename R>
class job_scope {
public:
    explicit job_scope(const job_handle<R>& handle) : handle_(handle) {}
    ~job_scope() {
        if (handle_.valid()) {
            handle_.cancel();
            handle_.wait();
        }
    }
    job_scope(const job_scope&) = delete;
    job_scope& operator=(const job_scope&) = delete;

private:
    job_handle<R> handle_;
};

/// One thread pool, many concurrent jobs.  Workers claim one task at a
/// time from each job with unclaimed work in rotation, so N concurrent jobs
/// each make continuous progress instead of queueing behind the earliest
/// submission -- a million-die lot cannot starve the two-die probe job
/// submitted after it -- and a lone job's tasks are claimed in index order.
/// Scheduling only reorders *when* an item is computed, never what it
/// computes (seeds derive from item indices).  Workers are spawned lazily
/// on the first submission and joined by the destructor; destroying the
/// queue cancels jobs still pending (their handles finish in state
/// `cancelled`), so no threads or work items ever leak.
class job_queue {
public:
    /// `threads` = 0 picks std::thread::hardware_concurrency().  threads =
    /// 1 still runs work on one pool worker (the caller's thread stays free
    /// to consume the results) -- results are bit-identical either way.
    explicit job_queue(std::size_t threads = 0);
    ~job_queue();

    job_queue(const job_queue&) = delete;
    job_queue& operator=(const job_queue&) = delete;

    /// Worker count (the resolved value, never 0).
    std::size_t threads() const noexcept { return threads_; }

    /// Submit a job of `item_count` items evaluated `group_size` at a time:
    /// each task calls group_fn(first, count, out) to compute items
    /// [first, first + count) into out[0..count) (count <= group_size; only
    /// the final group is short).  group_fn runs concurrently on the pool's
    /// workers, so it must be safe to invoke for disjoint groups in
    /// parallel and must depend only on the item indices (that is what
    /// makes the job's results completion-order independent).  Everything
    /// the job needs must be owned by (or outlive) the closure.
    ///
    /// `on_published` -- if set -- fires AFTER each publication becomes
    /// visible: new items landed in their slots, or the job flipped to a
    /// terminal state (including cancel-skip and worker-failure
    /// accounting).  This is the signal an event-driven consumer sleeps on:
    /// a wake delivered from here never races ahead of the state it
    /// advertises.  It is installed before any task can run, so it covers
    /// every publication; it fires at least once per publication event and
    /// runs on worker threads without the channel lock, so it may probe the
    /// handle freely but must be cheap and must not throw.
    template <typename R, typename GroupFn>
    job_handle<R> submit(std::size_t item_count, std::size_t group_size, GroupFn group_fn,
                         std::function<void()> on_published = nullptr) {
        BISTNA_EXPECTS(item_count > 0, "job must contain at least one item");
        const std::size_t group = std::max<std::size_t>(1, group_size);

        auto channel = std::make_shared<detail::job_channel<R>>(item_count);
        channel->on_published = std::move(on_published);

        auto record = std::make_shared<detail::job_record>();
        record->task_count = (item_count + group - 1) / group;
        record->request_cancel = [channel] {
            channel->cancel_requested.store(true, std::memory_order_relaxed);
        };
        record->run_task = [channel, group_fn = std::move(group_fn), item_count,
                            group](std::size_t task) {
            const std::size_t first = task * group;
            const std::size_t count = std::min(group, item_count - first);
            if (channel->cancel_requested.load(std::memory_order_relaxed)) {
                channel->skip_items(count);
                return;
            }
            try {
                std::vector<R> out(count);
                group_fn(first, count, out.data());
                detail::count_items_computed(count);
                channel->complete_items(first, std::move(out));
            } catch (...) {
                channel->fail_items(count, std::current_exception());
            }
        };

        enqueue(std::move(record));
        return job_handle<R>(std::move(channel));
    }

private:
    void enqueue(std::shared_ptr<detail::job_record> record);
    void worker_loop(std::size_t worker_index);

    const std::size_t threads_;
    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    std::deque<std::shared_ptr<detail::job_record>> jobs_; ///< with unclaimed tasks
    std::vector<std::thread> workers_;                     ///< spawned lazily
    std::size_t rr_cursor_ = 0; ///< next job index to claim from
    bool stopping_ = false;
};

} // namespace bistna::core
