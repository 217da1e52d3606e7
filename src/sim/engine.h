/// \file
/// Deterministic discrete-event multicore engine.
///
/// Two execution modes share one scheduling model (threads pinned to
/// cores, min-clock core order, slice preemption through the kernel
/// Process):
///
///  - serial (default, host_threads <= 1): one host thread advances the
///    runnable core with the minimum local clock, exactly the historical
///    engine.  The pick is a fixed-depth tournament tree keyed by
///    (clock, core id) and refreshed lazily (CorePickTree), so a step
///    replays one leaf-to-root path of log2(cores) compares instead of
///    scanning or sifting every core.
///
///  - epoch-parallel (set_host_threads(n >= 2)): cores are grouped into
///    *shards* — the union-find closure of cores coupled by a shared
///    kernel process — and host workers advance whole shards
///    independently up to an epoch horizon (min runnable clock + the
///    quantum).  Within a shard execution is the exact serial min-clock
///    loop over a pick tree of the shard's cores; across shards, workers stage telemetry into per-shard buffers
///    and defer cross-shard effects (sim/exec_context.h), and the main
///    thread drains both at the epoch barrier in shard-index order.  The
///    result is byte-identical for every host thread count — and, for
///    single-shard workloads (one process, every core populated),
///    byte-identical to the serial engine.
///
/// See docs/INTERNALS.md ("Parallel engine & epoch barriers").

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "hw/machine.h"
#include "kernel/process.h"
#include "sim/thread.h"

namespace vdom::sim {

/// Tournament tree over a set of cores that yields the one with the
/// minimum (clock, core id).
///
/// Leaves hold one core each, in ascending core-id order, padded with
/// drained leaves to a power of two; every inner node keeps the winning
/// leaf of its two children, and on equal clocks the left child (the
/// lower core id) wins.  Updating a leaf replays its path to the root:
/// log2(leaves) compares against the siblings' winners, with no
/// data-dependent exit.  A drained core's key is kDrained (+inf), so it
/// never wins against a runnable one.
///
/// The engine keeps keys lazily: a key is the core's clock when it was
/// last refreshed, and clocks only move forward, so a stale key can only
/// understate its core's clock.  Refreshing the root's leaf until its key
/// is current therefore converges on the true minimum.
class CorePickTree {
  public:
    static constexpr hw::Cycles kDrained =
        std::numeric_limits<hw::Cycles>::infinity();

    /// Resets to one drained leaf per entry of \p cores (ascending ids).
    void
    assign(const std::vector<std::size_t> &cores)
    {
        std::size_t width = 1;
        while (width < cores.size())
            width *= 2;
        width_ = width;
        key_.assign(width, kDrained);
        core_.assign(width, 0);
        for (std::size_t i = 0; i < cores.size(); ++i)
            core_[i] = cores[i];
        win_.assign(2 * width, 0);
        for (std::size_t i = 0; i < width; ++i)
            win_[width + i] = static_cast<std::uint32_t>(i);
        build();
    }

    /// Sets leaf \p leaf's key without replaying (call build() after a
    /// batch of these).
    void set_key(std::size_t leaf, hw::Cycles clock) { key_[leaf] = clock; }

    /// Recomputes every inner node from the leaves.
    void
    build()
    {
        for (std::size_t k = width_ - 1; k >= 1; --k) {
            std::uint32_t left = win_[2 * k];
            std::uint32_t right = win_[2 * k + 1];
            win_[k] = key_[right] < key_[left] ? right : left;
        }
    }

    /// Sets leaf \p leaf's key and replays its path to the root.
    void
    update(std::size_t leaf, hw::Cycles clock)
    {
        key_[leaf] = clock;
        std::uint32_t w = static_cast<std::uint32_t>(leaf);
        hw::Cycles kw = clock;
        // The climbing winner stays in registers; each level loads only
        // the sibling's winner, which this update does not change.
        for (std::size_t k = width_ + leaf; k > 1; k >>= 1) {
            std::uint32_t s = win_[k ^ 1];
            hw::Cycles ks = key_[s];
            bool take = ks < kw || (ks == kw && s < w);
            w = take ? s : w;
            kw = take ? ks : kw;
            win_[k >> 1] = w;
        }
    }

    /// The winning leaf (a drained one when every leaf is drained), its
    /// key and its core.
    std::size_t top() const { return win_[1]; }
    hw::Cycles key(std::size_t leaf) const { return key_[leaf]; }
    std::size_t core(std::size_t leaf) const { return core_[leaf]; }

  private:
    std::size_t width_ = 1;
    /// 1-based: node k's children are 2k and 2k+1, and node width_ + i is
    /// leaf i.  Each node holds the leaf that wins its subtree.
    std::vector<std::uint32_t> win_ = std::vector<std::uint32_t>(2);
    std::vector<hw::Cycles> key_ = std::vector<hw::Cycles>(1, kDrained);
    std::vector<std::size_t> core_ = std::vector<std::size_t>(1);
};

/// One core's run queue: a circular buffer whose rotation (the preempted
/// or yielding front thread goes to the back) only moves the head.
/// push_back and pop_front shift the vector, but they run once per thread
/// start and finish; rotate runs on every context switch.  for_each visits
/// threads in logical (front-to-back) order.
class RunQueue {
  public:
    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }
    SimThread *front() const { return items_[head_]; }

    void
    push_back(SimThread *thread)
    {
        items_.insert(items_.begin() + static_cast<std::ptrdiff_t>(head_),
                      thread);
        if (items_.size() > 1)
            ++head_;
    }

    void
    pop_front()
    {
        items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(head_));
        if (head_ == items_.size())
            head_ = 0;
    }

    /// Moves the front thread to the back.
    void
    rotate()
    {
        if (++head_ == items_.size())
            head_ = 0;
    }

    template <typename Fn>
    void
    for_each(Fn &&fn) const
    {
        for (std::size_t i = 0; i < items_.size(); ++i)
            fn(items_[(head_ + i) % items_.size()]);
    }

  private:
    std::vector<SimThread *> items_;
    std::size_t head_ = 0;  ///< Index of the front thread.
};

/// Runs SimThreads over the simulated machine.
///
/// Scheduling model:
///  - threads are pinned to cores (§6.3: VDom binds threads to cores);
///    multiple threads per core time-share with a configurable slice and
///    pay context-switch costs through the kernel Process;
///  - the engine always advances the runnable core with the minimum local
///    clock (ties broken by core id), which yields a causally consistent,
///    fully deterministic interleaving.
class Engine {
  public:
    /// \param proc kernel process used for context-switch accounting; may
    ///        be null for bare microbenchmarks (no switch costs charged).
    /// \param time_slice preemption quantum in cycles.
    Engine(hw::Machine &machine, kernel::Process *proc = nullptr,
           hw::Cycles time_slice = 1'000'000);
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /// Adds \p thread pinned to \p core (or round-robin when < 0).
    void add_thread(SimThread *thread, int core = -1);

    /// Selects the execution mode: <= 1 keeps the serial engine (the
    /// default); n >= 2 runs epoch-parallel with n host worker threads
    /// (capped at the shard count — extra workers would idle).
    void set_host_threads(std::size_t n) { host_threads_ = n ? n : 1; }
    std::size_t host_threads() const { return host_threads_; }

    /// Epoch horizon step for the parallel mode, in simulated cycles.
    /// Smaller quanta mean tighter cross-shard coupling (more barriers);
    /// results are byte-identical for any value.
    void set_epoch_quantum(hw::Cycles quantum) { quantum_ = quantum; }
    hw::Cycles epoch_quantum() const { return quantum_; }

    /// Runs until every thread finishes.
    void run();

    /// Runs until every thread finishes or the minimum runnable clock
    /// passes \p deadline.
    void run_until(hw::Cycles deadline);

    std::size_t live_threads() const { return live_threads_; }

    std::uint64_t context_switches() const { return context_switches_; }

    /// Total thread steps executed (diagnostics / livelock detection).
    std::uint64_t steps() const { return steps_; }

    /// Epoch barriers executed (0 after serial runs).
    std::uint64_t epochs() const { return epochs_; }

    /// Number of independent shards the current thread placement yields
    /// (recomputed on demand; diagnostics and tests).
    std::size_t shard_count();

  private:
    struct Shard;  ///< Epoch-parallel per-shard state (engine.cc).
    struct Pool;   ///< Host worker pool (engine.cc).

    // --- serial path ------------------------------------------------------
    std::size_t pick_core();
    /// Refreshes \p tree's root until its key is its core's current
    /// clock (drained cores get kDrained); returns that core, or kNoCore
    /// (engine.cc) when no leaf is runnable.
    std::size_t refresh_pick(CorePickTree &tree) const;
    /// Loads \p tree with \p cores and their current keys.
    void build_pick(CorePickTree &tree,
                    const std::vector<std::size_t> &cores) const;
    void step_once();
    bool step_core(std::size_t c, std::size_t &live, std::uint64_t &steps,
                   std::uint64_t &switches);
    void switch_in(hw::Core &core, SimThread &thread,
                   std::uint64_t &switches);
    kernel::Process *process_for(SimThread &thread) const;
    void ensure_installed(hw::Core &core, SimThread &thread);

    // --- epoch-parallel path ----------------------------------------------
    void compute_shards();
    void prepare_epoch_state();
    void finish_epoch_state();
    void run_epochs(hw::Cycles deadline);
    void run_shard_until(Shard &shard, hw::Cycles horizon);
    hw::Cycles min_runnable_clock() const;
    void drain_shard(Shard &shard);
    void apply_deferred(Shard &shard);
    std::uint64_t remap_flow(Shard &shard, std::uint64_t staged);

    hw::Machine *machine_;
    kernel::Process *proc_;
    hw::Cycles time_slice_;
    std::vector<RunQueue> queues_;
    std::vector<hw::Cycles> slice_start_;
    std::vector<SimThread *> installed_;
    std::size_t next_core_ = 0;
    std::size_t live_threads_ = 0;
    std::uint64_t context_switches_ = 0;
    std::uint64_t steps_ = 0;

    std::vector<std::size_t> all_cores_;  ///< 0 .. num_cores-1.
    CorePickTree pick_;
    bool pick_stale_ = true;

    std::size_t host_threads_ = 1;
    hw::Cycles quantum_ = 1'000'000;
    std::uint64_t epochs_ = 0;
    bool shards_stale_ = true;
    std::vector<std::unique_ptr<Shard>> shards_;
    telemetry::FlightRecorder *real_flight_ = nullptr;
    Tracer *real_trace_ = nullptr;
    telemetry::SpanTracer *real_span_ = nullptr;
    FaultPlan *real_fault_ = nullptr;
};

}  // namespace vdom::sim
