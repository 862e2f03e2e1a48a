#include "layers.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "core/board.hpp"
#include "core/job_queue.hpp"
#include "core/stimulus_cache.hpp"
#include "core/sweep_engine.hpp"
#include "diag/fault_dictionary.hpp"
#include "diag/trajectory_builder.hpp"
#include "dut/state_space.hpp"
#include "eval/evaluator.hpp"
#include "sd/modulator_bank.hpp"
#include "shard/unit_stream.hpp"
#include "store/lot_store.hpp"
#include "store/records.hpp"
#include "svc/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace lotbench {

namespace {

using bistna::core::demonstrator_board;
using bistna::shard::lot_manifest;
using bistna::shard::workload_kind;

/// The boards and evaluator configs of units [0, count) of a job, and the
/// first frequency its program measures -- what the engine's group
/// functions construct.
struct lane_group {
    std::vector<demonstrator_board> boards;
    std::vector<bistna::eval::evaluator_config> configs;
    double first_f_hz = 0.0;
};

lane_group make_group(const lot_manifest& job, std::size_t count) {
    lane_group group;
    const auto settings = job.make_settings();
    if (job.workload == workload_kind::screening) {
        const auto factory = job.make_factory();
        for (std::size_t l = 0; l < count; ++l) {
            group.boards.push_back(factory(job.first_seed + l));
            group.configs.push_back(settings.evaluator);
        }
        group.first_f_hz = job.make_mask().limits.front().f_hz;
        return group;
    }
    bistna::diag::trajectory_build_options build;
    build.grid_points = job.grid_points;
    build.nominal_seed = job.nominal_seed;
    build.eval_seed_base = job.eval_seed_base;
    const auto space = bistna::diag::signature_space::from_mask(job.make_mask(),
                                                                job.thd_max_harmonic);
    const auto plan = bistna::diag::make_dictionary_plan(
        job.make_die_design(), settings, space, bistna::diag::default_catalog(), build);
    for (std::size_t l = 0; l < count; ++l) {
        group.boards.push_back(plan.items[l].make_board());
        group.configs.push_back(plan.items[l].evaluator);
    }
    group.first_f_hz = plan.program.frequencies.front().value;
    return group;
}

/// Repeat `body` until at least `min_seconds` elapsed; seconds per call.
template <typename Body>
double seconds_per_call(double min_seconds, Body&& body) {
    std::size_t calls = 0;
    const auto t0 = clock_type::now();
    double elapsed = 0.0;
    do {
        body();
        ++calls;
        elapsed = seconds_since(t0);
    } while (elapsed < min_seconds);
    return elapsed / static_cast<double>(calls);
}

} // namespace

stage_breakdown engine_stages(const bistna::telemetry::telemetry_snapshot& snapshot) {
    stage_breakdown out;
    for (const auto& thread : snapshot.threads) {
        out.dropped_spans += thread.dropped_spans;
    }
    // Stage spans never overlap on one thread, so the stage enclosing an
    // acquisition is the last one on its thread that started before it.
    struct stage {
        std::uint32_t tid;
        std::uint64_t start;
        std::uint64_t end;
        double* acq;
    };
    std::vector<stage> stages;
    for (const auto& span : snapshot.spans) {
        const auto d = static_cast<double>(span.duration_ns);
        double* acq = nullptr;
        if (span.name == "engine.render") {
            out.render_ns += d;
        } else if (span.name == "engine.calibrate") {
            out.calibrate_ns += d;
            acq = &out.calibrate_acq_ns;
        } else if (span.name == "engine.evaluate") {
            out.evaluate_ns += d;
            acq = &out.evaluate_acq_ns;
        } else if (span.name == "engine.thd") {
            out.thd_ns += d;
            acq = &out.thd_acq_ns;
        }
        if (acq != nullptr) {
            stages.push_back({span.tid, span.start_ns, span.start_ns + span.duration_ns, acq});
        }
    }
    const auto key = [](const stage& s) { return std::tie(s.tid, s.start); };
    std::sort(stages.begin(), stages.end(),
              [&](const stage& a, const stage& b) { return key(a) < key(b); });
    for (const auto& span : snapshot.spans) {
        if (span.name != "eval.modulate") {
            continue;
        }
        const auto d = static_cast<double>(span.duration_ns);
        const stage probe{span.tid, span.start_ns, 0, nullptr};
        auto it = std::upper_bound(stages.begin(), stages.end(), probe,
                                   [&](const stage& a, const stage& b) { return key(a) < key(b); });
        if (it != stages.begin() && (--it)->tid == span.tid &&
            span.start_ns + span.duration_ns <= it->end) {
            *it->acq += d;
        } else {
            out.stray_acq_ns += d;
        }
    }
    return out;
}

encode_timing time_encode(const std::vector<bistna::store::record>& records,
                          workload_kind kind) {
    encode_timing out;
    std::vector<bistna::store::stored_report> reports;
    std::vector<bistna::store::stored_acquisition> acquisitions;
    for (const auto& record : records) {
        if (kind == workload_kind::screening) {
            reports.push_back(bistna::store::report_from_record(record));
        } else {
            acquisitions.push_back(bistna::store::acquisition_from_record(record));
        }
    }
    std::vector<bistna::store::record> encoded(records.size());
    out.ns_per_record = 1e9 * seconds_per_call(0.05, [&] {
                            for (std::size_t i = 0; i < reports.size(); ++i) {
                                encoded[i] = bistna::store::to_record(reports[i].report,
                                                                      reports[i].die);
                            }
                            for (std::size_t i = 0; i < acquisitions.size(); ++i) {
                                encoded[i] = bistna::store::to_record(acquisitions[i].result,
                                                                      acquisitions[i].item);
                            }
                        }) /
                        static_cast<double>(std::max<std::size_t>(1, records.size()));
    for (std::size_t i = 0; i < records.size(); ++i) {
        out.mismatches += encoded[i] != records[i] ? 1 : 0;
    }
    return out;
}

kernel_timings time_kernels(const lot_manifest& job) {
    kernel_timings out;
    const auto settings = job.make_settings();
    const std::size_t count =
        static_cast<std::size_t>(std::min<std::uint64_t>(job.batch_lanes, job.total_units()));
    out.lanes = count;
    lane_group group = make_group(job, count);

    // Cold staircase render (no cache attached): median of 3.
    std::vector<double> renders;
    bistna::core::stimulus_cache::record_ptr stair;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = clock_type::now();
        stair = group.boards.front().stimulus_record(settings.periods, settings.settle_periods);
        renders.push_back(1e6 * seconds_since(t0));
    }
    out.render_us = median(renders);

    // DUT bank over the group's realizations at the first measured
    // frequency, the staircase broadcast to every lane.
    const auto tb = bistna::sim::timebase::for_wave_frequency(bistna::hertz{group.first_f_hz});
    std::vector<bistna::dut::state_space*> realizations;
    for (auto& board : group.boards) {
        board.dut().reset();
        board.dut().prepare(tb.master().value);
        realizations.push_back(board.dut().linear_realization());
    }
    if (realizations.front() != nullptr) {
        out.dut_order = realizations.front()->order();
    }
    const std::size_t samples = stair->size();
    std::vector<double> lane_major(samples * count);
    out.dut_banked =
        std::all_of(realizations.begin(), realizations.end(), [](auto* p) { return p; }) &&
        bistna::dut::state_space_bank::compatible({realizations.data(), count});
    if (out.dut_banked) {
        bistna::arena scratch;
        bistna::dut::state_space_bank bank({realizations.data(), count}, scratch);
        out.dut_bank_ns_per_sample =
            1e9 * seconds_per_call(0.05, [&] {
                bank.step_block_shared(stair->data(), samples, lane_major.data());
            }) / static_cast<double>(samples * count);
    } else {
        // Not bankable: the engine renders these lanes with the scalar
        // per-lane step_block; time that instead.
        std::vector<double> record(samples);
        out.dut_bank_ns_per_sample =
            1e9 * seconds_per_call(0.05, [&] {
                for (std::size_t l = 0; l < count; ++l) {
                    group.boards[l].dut().process_block(*stair, record);
                    for (std::size_t n = 0; n < samples; ++n) {
                        lane_major[n * count + l] = record[n];
                    }
                }
            }) / static_cast<double>(samples * count);
    }

    // Modulator bank on the workload's modulator, fed the DUT output.
    const auto& modulator = group.configs.front().modulator;
    out.sd_noisy = modulator.noise_rms > 0.0;
    bistna::sd::modulator_bank bank;
    for (std::size_t l = 0; l < count; ++l) {
        bank.add_lane(modulator, bistna::rng(bistna::derive_stream_seed(job.first_seed, l)));
    }
    const std::size_t n_per_period = group.configs.front().n_per_period;
    std::vector<double> qsigns(samples);
    std::vector<double> acc_signs(samples, 1.0);
    for (std::size_t n = 0; n < samples; ++n) {
        qsigns[n] = (n % n_per_period) < n_per_period / 2 ? 1.0 : -1.0;
    }
    std::vector<double> acc(count, 0.0);
    out.sd_bank_ns_per_sample =
        1e9 * seconds_per_call(0.05, [&] {
            bank.accumulate_lane_major(lane_major.data(), qsigns.data(), acc_signs.data(),
                                       samples, acc.data());
        }) / static_cast<double>(samples * count);
    out.sd_grounded_ns_per_sample =
        1e9 * seconds_per_call(0.05, [&] { bank.accumulate_grounded(samples, acc.data()); }) /
        static_cast<double>(samples * count);

    bistna::rng rng(job.first_seed);
    double sink = 0.0;
    constexpr std::size_t draws = 1 << 20;
    out.gaussian_ns = 1e9 * seconds_per_call(0.02, [&] {
                          for (std::size_t i = 0; i < draws; ++i) {
                              sink += rng.gaussian();
                          }
                      }) / static_cast<double>(draws);
    volatile double keep = sink; // the draws stay observable
    (void)keep;
    return out;
}

io_timings time_io(const std::vector<bistna::store::record>& records,
                   const std::string& scratch_path, std::size_t flush_interval) {
    io_timings out;
    const double n = static_cast<double>(records.size());

    out.append_ns_per_record = 1e9 * seconds_per_call(0.05, [&] {
                                   auto store = bistna::store::lot_store::create(
                                       scratch_path, {flush_interval});
                                   for (const auto& record : records) {
                                       store.append(record);
                                   }
                                   store.flush();
                               }) / n;
    std::remove(scratch_path.c_str());

    std::vector<std::uint8_t> wire;
    out.frame_ns_per_record =
        1e9 * seconds_per_call(0.05, [&] {
            wire.clear();
            bistna::svc::frame_decoder decoder;
            for (std::size_t i = 0; i < records.size(); ++i) {
                const auto bytes = bistna::svc::wire_bytes(
                    bistna::svc::encode(bistna::svc::result_frame{1, i, records[i]}));
                wire.insert(wire.end(), bytes.begin(), bytes.end());
                decoder.feed(bytes);
                const auto frame = decoder.next();
                if (!frame || bistna::svc::decode_result(*frame).record != records[i]) {
                    throw std::runtime_error("svc frame did not decode back to its record");
                }
            }
        }) / n;

    // The same bytes across a socketpair, writer and reader concurrent.
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        throw std::runtime_error("socketpair failed");
    }
    out.socket_ns_per_record =
        1e9 * seconds_per_call(0.05, [&] {
            std::jthread writer([&] {
                std::size_t sent = 0;
                while (sent < wire.size()) {
                    const long k = ::send(fds[0], wire.data() + sent, wire.size() - sent,
                                          MSG_NOSIGNAL);
                    if (k <= 0) {
                        return;
                    }
                    sent += static_cast<std::size_t>(k);
                }
            });
            std::vector<std::uint8_t> buffer(1 << 16);
            std::size_t received = 0;
            while (received < wire.size()) {
                const long k = ::read(fds[1], buffer.data(), buffer.size());
                if (k <= 0) {
                    break;
                }
                received += static_cast<std::size_t>(k);
            }
        }) / n;
    ::close(fds[0]);
    ::close(fds[1]);
    return out;
}

request_timing time_small_request(const lot_manifest& job, std::size_t threads) {
    lot_manifest request = job;
    const std::uint64_t units = std::min<std::uint64_t>(16, job.total_units());
    if (job.workload == workload_kind::screening) {
        request.dice = units;
    }
    auto queue = std::make_shared<bistna::core::job_queue>(threads);
    bistna::telemetry::metric_registry registry;
    std::vector<double> samples;
    {
        bistna::telemetry::registry_scope scope(registry);
        for (int rep = 0; rep < 5; ++rep) {
            const auto t0 = clock_type::now();
            bistna::shard::unit_stream stream(request, 0, units, queue);
            if (!stream.next()) {
                throw std::runtime_error("request stream delivered no record");
            }
            samples.push_back(1e3 * seconds_since(t0));
        }
    }
    request_timing out;
    out.median_ms = median(samples);
    for (double ms : samples) {
        out.mean_ms += ms / static_cast<double>(samples.size());
    }
    out.trials = samples.size();
    out.stages = engine_stages(registry.snapshot());
    return out;
}

} // namespace lotbench
