#include "core/job_queue.hpp"

#include <string>

#include "telemetry/metrics.hpp"

namespace bistna::core {

namespace {

// Interned once; recording through them is a no-op unless a registry is
// attached (see telemetry/metrics.hpp).
telemetry::metric_id depth_histogram() {
    static const telemetry::metric_id id =
        telemetry::histogram_id("job_queue.depth");
    return id;
}

telemetry::metric_id wait_histogram() {
    static const telemetry::metric_id id =
        telemetry::histogram_id("job_queue.task.wait_ns");
    return id;
}

telemetry::metric_id run_histogram() {
    static const telemetry::metric_id id =
        telemetry::histogram_id("job_queue.task.run_ns");
    return id;
}

telemetry::metric_id items_counter() {
    static const telemetry::metric_id id =
        telemetry::counter_id("job_queue.items_computed");
    return id;
}

std::size_t resolve_threads(std::size_t threads) {
    if (threads != 0) {
        return threads;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

} // namespace

void detail::count_items_computed(std::size_t n) noexcept {
    telemetry::counter_add(items_counter(), n);
}

job_queue::job_queue(std::size_t threads) : threads_(resolve_threads(threads)) {}

job_queue::~job_queue() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        // Cancel whatever has not started: the remaining tasks still run
        // (each is a cheap skip under the cancel flag), so every channel
        // accounts for all of its items and every handle reaches a
        // terminal state -- nothing blocks forever on a dropped queue.
        for (const auto& job : jobs_) {
            job->request_cancel();
        }
    }
    work_cv_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void job_queue::enqueue(std::shared_ptr<detail::job_record> record) {
    {
        if (telemetry::attached()) {
            record->enqueued_ns = telemetry::now_ns();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        BISTNA_EXPECTS(!stopping_, "submit on a destroyed job_queue");
        jobs_.push_back(std::move(record));
        telemetry::histogram_record(depth_histogram(), jobs_.size());
        // Lazy spawn: a queue that never receives work never starts a
        // thread (many tests construct engines they use once or not at
        // all).  The pool is sized once and never shrinks until
        // destruction.
        while (workers_.size() < threads_) {
            const std::size_t index = workers_.size();
            workers_.emplace_back([this, index] { worker_loop(index); });
        }
    }
    work_cv_.notify_all();
}

void job_queue::worker_loop(std::size_t worker_index) {
    telemetry::set_thread_name("jq-worker-" + std::to_string(worker_index));
    for (;;) {
        std::shared_ptr<detail::job_record> job;
        std::size_t task = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [&] { return stopping_ || !jobs_.empty(); });
            if (jobs_.empty()) {
                return; // stopping and drained
            }
            // One task per job in rotation, so every live job keeps making
            // progress.
            if (rr_cursor_ >= jobs_.size()) {
                rr_cursor_ = 0;
            }
            job = jobs_[rr_cursor_];
            task = job->next_task++;
            if (job->next_task == job->task_count) {
                // A drained job leaves the rotation; the cursor stays put,
                // so the job that slides into this slot is served next.
                jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(rr_cursor_));
            } else {
                ++rr_cursor_;
            }
        }
        // Clock reads only when a registry is listening: the detached hot
        // path stays one atomic load per task.
        const bool instrument = telemetry::attached();
        std::uint64_t claimed_ns = 0;
        if (instrument) {
            claimed_ns = telemetry::now_ns();
            if (job->enqueued_ns != 0 && claimed_ns >= job->enqueued_ns) {
                telemetry::histogram_record(wait_histogram(),
                                            claimed_ns - job->enqueued_ns);
            }
        }
        job->run_task(task);
        if (instrument) {
            telemetry::histogram_record(run_histogram(),
                                        telemetry::now_ns() - claimed_ns);
        }
    }
}

} // namespace bistna::core
