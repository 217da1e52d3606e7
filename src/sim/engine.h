/// \file
/// Deterministic discrete-event multicore engine.
///
/// Two execution modes share one scheduling model (threads pinned to
/// cores, min-clock core order, slice preemption through the kernel
/// Process):
///
///  - serial (default, host_threads <= 1): one host thread advances the
///    runnable core with the minimum local clock, exactly the historical
///    engine.  Scheduling uses a lazy min-heap keyed by (clock, core id),
///    so large simulated machines no longer pay an O(num_cores) scan per
///    step.
///
///  - epoch-parallel (set_host_threads(n >= 2)): cores are grouped into
///    *shards* — the union-find closure of cores coupled by a shared
///    kernel process — and host workers advance whole shards
///    independently up to an epoch horizon (min runnable clock + the
///    quantum).  Within a shard execution is the exact serial min-clock
///    loop; across shards, workers stage telemetry into per-shard buffers
///    and defer cross-shard effects (sim/exec_context.h), and the main
///    thread drains both at the epoch barrier in shard-index order.  The
///    result is byte-identical for every host thread count — and, for
///    single-shard workloads (one process, every core populated),
///    byte-identical to the serial engine.
///
/// See docs/INTERNALS.md ("Parallel engine & epoch barriers").

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "hw/machine.h"
#include "kernel/process.h"
#include "sim/thread.h"

namespace vdom::sim {

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

    /// Lazy min-heap entry: a (clock, core) snapshot.  Entries go stale
    /// when the core steps or its queue drains; pick_core() skips and
    /// refreshes them.
    struct HeapEntry {
        hw::Cycles clock;
        std::size_t core;
    };

    // --- serial path ------------------------------------------------------
    /// Heap order: true when \p a sorts after \p b by (clock, core).
    static bool heap_after(const HeapEntry &a, const HeapEntry &b);
    std::size_t pick_core();
    void rebuild_heap();
    /// Moves heap_.front() down to its place (the heap is non-empty).
    void sift_down_root();
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
    std::vector<std::deque<SimThread *>> queues_;
    std::vector<hw::Cycles> slice_start_;
    std::vector<SimThread *> installed_;
    std::size_t next_core_ = 0;
    std::size_t live_threads_ = 0;
    std::uint64_t context_switches_ = 0;
    std::uint64_t steps_ = 0;

    std::vector<HeapEntry> heap_;
    bool heap_stale_ = true;

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
