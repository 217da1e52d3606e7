/// \file
/// Engine implementation: the serial min-clock scheduler and the
/// epoch-parallel sharded execution mode (see engine.h for the model).

#include "sim/engine.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "kernel/asid.h"
#include "kernel/shootdown.h"
#include "kernel/vds.h"
#include "sim/exec_context.h"
#include "sim/fault.h"
#include "sim/trace.h"
#include "telemetry/flightrec.h"
#include "telemetry/span.h"

namespace vdom::sim {

namespace {

/// Tag/ctx-id blocks handed to each process in epoch mode — far larger
/// than any workload consumes, so the shared-counter fallback (which
/// would cost cross-thread-count value identity, never correctness)
/// stays theoretical.
constexpr std::uint32_t kAsidBlockSize = 1u << 20;
constexpr std::uint64_t kCtxBlockSize = 1ULL << 20;

constexpr std::size_t kNoCore = static_cast<std::size_t>(-1);

}  // namespace

/// Per-shard state for the epoch-parallel mode: the cores the shard owns,
/// its share of the engine counters, staging sinks the owning worker
/// installs thread-locally while the shard runs, and the buffers the main
/// thread drains at the epoch barrier.
struct Engine::Shard {
    std::vector<std::size_t> cores;  ///< Ascending core ids.
    CorePickTree pick;               ///< Over `cores`, rebuilt per epoch.
    std::uint64_t mask = 0;          ///< Bitmap of `cores`.
    std::size_t live = 0;
    std::uint64_t steps = 0;
    std::uint64_t switches = 0;
    // Staging sinks (capture mode: everything lands in the vectors below).
    telemetry::FlightRecorder stage_flight{1, 0};
    Tracer stage_trace{0};
    telemetry::SpanTracer stage_span{0};
    std::vector<telemetry::FlightRecord> flight;
    std::vector<TraceRecord> trace;
    std::vector<telemetry::SpanEvent> spans;
    std::vector<RemoteFlush> deferred;
    /// Staged flow id -> real flow id, first-appearance order (which is
    /// the shard's allocation order, so single-shard runs reproduce the
    /// serial engine's flow numbering exactly).
    std::unordered_map<std::uint64_t, std::uint64_t> flow_map;
    ExecContext ctx;
    FaultPlan plan;
    bool has_plan = false;
    std::exception_ptr error;
};

/// Persistent host worker pool for one run: workers claim shards from a
/// shared cursor each epoch and advance them to the horizon.  Claim order
/// is nondeterministic; results are not — shards share no mutable state
/// and the barrier drain is ordered by shard index, so which host thread
/// ran a shard is unobservable.
struct Engine::Pool {
    Engine &eng;
    std::mutex mu;
    std::condition_variable cv_work;
    std::condition_variable cv_done;
    std::vector<Shard *> batch;
    hw::Cycles horizon = 0;
    std::uint64_t gen = 0;   ///< Epoch generation (wakes workers).
    std::size_t next = 0;    ///< Shard claim cursor.
    std::size_t done = 0;    ///< Shards finished this epoch.
    bool stop = false;
    std::vector<std::thread> threads;

    Pool(Engine &engine, std::size_t nworkers) : eng(engine)
    {
        threads.reserve(nworkers);
        for (std::size_t i = 0; i < nworkers; ++i)
            threads.emplace_back([this] { work(); });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            stop = true;
        }
        cv_work.notify_all();
        for (std::thread &t : threads)
            t.join();
    }

    void
    run_epoch(const std::vector<Shard *> &shards, hw::Cycles h)
    {
        std::unique_lock<std::mutex> lock(mu);
        batch = shards;
        horizon = h;
        next = 0;
        done = 0;
        ++gen;
        lock.unlock();
        cv_work.notify_all();
        lock.lock();
        cv_done.wait(lock, [this] { return done == batch.size(); });
    }

    void
    work()
    {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            cv_work.wait(lock, [&] { return stop || gen != seen; });
            if (stop)
                return;
            seen = gen;
            while (next < batch.size()) {
                Shard *shard = batch[next++];
                hw::Cycles h = horizon;
                lock.unlock();
                eng.run_shard_until(*shard, h);
                lock.lock();
                ++done;
                if (done == batch.size())
                    cv_done.notify_all();
            }
        }
    }
};

Engine::Engine(hw::Machine &machine, kernel::Process *proc,
               hw::Cycles time_slice)
    : machine_(&machine),
      proc_(proc),
      time_slice_(time_slice),
      queues_(machine.num_cores()),
      slice_start_(machine.num_cores(), 0),
      installed_(machine.num_cores(), nullptr),
      all_cores_(machine.num_cores())
{
    for (std::size_t c = 0; c < all_cores_.size(); ++c)
        all_cores_[c] = c;
}

Engine::~Engine() = default;

void
Engine::add_thread(SimThread *thread, int core)
{
    std::size_t c = core >= 0
        ? static_cast<std::size_t>(core) % machine_->num_cores()
        : next_core_++ % machine_->num_cores();
    queues_[c].push_back(thread);
    ++live_threads_;
    pick_stale_ = true;
    shards_stale_ = true;
}

void
Engine::run()
{
    if (host_threads_ >= 2) {
        run_epochs(std::numeric_limits<hw::Cycles>::max());
        return;
    }
    while (live_threads_ > 0)
        step_once();
}

void
Engine::run_until(hw::Cycles deadline)
{
    if (host_threads_ >= 2) {
        run_epochs(deadline);
        return;
    }
    while (live_threads_ > 0) {
        std::size_t c = pick_core();
        if (machine_->core(c).now() >= deadline)
            return;
        step_core(c, live_threads_, steps_, context_switches_);
    }
}

std::size_t
Engine::shard_count()
{
    if (shards_stale_)
        compute_shards();
    return shards_.size();
}

// --- serial path ---------------------------------------------------------

void
Engine::build_pick(CorePickTree &tree,
                   const std::vector<std::size_t> &cores) const
{
    tree.assign(cores);
    for (std::size_t i = 0; i < cores.size(); ++i)
        tree.set_key(i, queues_[cores[i]].empty()
                            ? CorePickTree::kDrained
                            : machine_->core(cores[i]).now());
    tree.build();
}

std::size_t
Engine::refresh_pick(CorePickTree &tree) const
{
    // Lazy refresh: a key can only understate its core's clock, so once
    // the root's key is current it is the true (clock, core) minimum —
    // the core a linear scan would pick, including the lowest-id
    // tie-break.  The core stepped last is usually the only stale leaf.
    for (;;) {
        std::size_t leaf = tree.top();
        hw::Cycles key = tree.key(leaf);
        if (key == CorePickTree::kDrained)
            return kNoCore;
        std::size_t c = tree.core(leaf);
        if (queues_[c].empty()) {
            tree.update(leaf, CorePickTree::kDrained);
            continue;
        }
        hw::Cycles now = machine_->core(c).now();
        if (now == key)
            return c;
        tree.update(leaf, now);
    }
}

std::size_t
Engine::pick_core()
{
    if (pick_stale_) {
        build_pick(pick_, all_cores_);
        pick_stale_ = false;
    }
    std::size_t c = refresh_pick(pick_);
    return c == kNoCore ? 0 : c;
}

void
Engine::step_once()
{
    step_core(pick_core(), live_threads_, steps_, context_switches_);
}

bool
Engine::step_core(std::size_t c, std::size_t &live, std::uint64_t &steps,
                  std::uint64_t &switches)
{
    ++steps;
    auto &queue = queues_[c];
    hw::Core &core = machine_->core(c);
    // Preempt when the slice expired and another thread waits.
    if (queue.size() > 1 && core.now() - slice_start_[c] >= time_slice_) {
        queue.rotate();
        switch_in(core, *queue.front(), switches);
        slice_start_[c] = core.now();
    }
    SimThread *thread = queue.front();
    ensure_installed(core, *thread);
    if (!thread->step(core)) {
        queue.pop_front();
        --live;
        if (!queue.empty()) {
            switch_in(core, *queue.front(), switches);
            slice_start_[c] = core.now();
        }
        return true;
    }
    // A yielding thread (blocked waiting for work) is descheduled in
    // favour of the next runnable thread on this core.
    if (thread->take_yield() && queue.size() > 1) {
        queue.rotate();
        switch_in(core, *queue.front(), switches);
        slice_start_[c] = core.now();
    }
    return false;
}

void
Engine::switch_in(hw::Core &core, SimThread &thread, std::uint64_t &switches)
{
    ++switches;
    kernel::Process *proc = process_for(thread);
    if (proc && thread.task())
        proc->switch_to(core, *thread.task());
    installed_[core.id()] = &thread;
}

kernel::Process *
Engine::process_for(SimThread &thread) const
{
    return thread.process() ? thread.process() : proc_;
}

void
Engine::ensure_installed(hw::Core &core, SimThread &thread)
{
    if (installed_[core.id()] == &thread)
        return;
    kernel::Process *proc = process_for(thread);
    if (proc && thread.task())
        proc->switch_to(core, *thread.task(),
                        installed_[core.id()] != nullptr);
    installed_[core.id()] = &thread;
}

// --- epoch-parallel path -------------------------------------------------

void
Engine::compute_shards()
{
    shards_.clear();
    const std::size_t n = queues_.size();
    // Union-find over cores: two cores couple when threads on both
    // context-switch through the same kernel process (shootdowns, ASID
    // assignment and VDS state all live in the process, so that is the
    // complete coupling surface).
    std::vector<std::size_t> parent(n);
    for (std::size_t c = 0; c < n; ++c)
        parent[c] = c;
    auto find = [&parent](std::size_t c) {
        while (parent[c] != c) {
            parent[c] = parent[parent[c]];
            c = parent[c];
        }
        return c;
    };
    std::unordered_map<kernel::Process *, std::size_t> proc_core;
    for (std::size_t c = 0; c < n; ++c) {
        queues_[c].for_each([&](SimThread *t) {
            kernel::Process *p = process_for(*t);
            if (!p)
                return;
            auto [it, fresh] = proc_core.try_emplace(p, c);
            if (!fresh)
                parent[find(c)] = find(it->second);
        });
    }
    // Group populated cores by root, shards ordered by lowest core id.
    std::unordered_map<std::size_t, std::size_t> root_shard;
    for (std::size_t c = 0; c < n; ++c) {
        if (queues_[c].empty())
            continue;
        std::size_t root = find(c);
        auto [it, fresh] = root_shard.try_emplace(root, shards_.size());
        if (fresh)
            shards_.push_back(std::make_unique<Shard>());
        Shard &s = *shards_[it->second];
        s.cores.push_back(c);
        if (c < 64)
            s.mask |= 1ULL << c;
        s.live += queues_[c].size();
    }
    // Cores with no queued threads never execute, but shootdowns still
    // target them (stale TLB state left by setup, broadcast flushes).
    // Hand their ownership to shard 0 so a single-shard world owns the
    // whole machine and shoots them inline exactly like the serial
    // engine; deferral stays reserved for genuinely cross-shard targets.
    if (!shards_.empty()) {
        std::uint64_t owned = 0;
        for (auto &sp : shards_)
            owned |= sp->mask;
        for (std::size_t c = 0; c < n && c < 64; ++c)
            if (!(owned & (1ULL << c)))
                shards_[0]->mask |= 1ULL << c;
    }
    shards_stale_ = false;
}

void
Engine::prepare_epoch_state()
{
    // Capture the driving thread's sinks; workers get per-shard staging
    // stand-ins for exactly the sinks that are attached here, so the
    // null-sink contract looks identical from inside a shard.
    real_flight_ = telemetry::flight_sink();
    real_trace_ = trace_sink();
    real_span_ = telemetry::span_sink();
    real_fault_ = fault_sink();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard &s = *shards_[i];
        s.stage_flight.set_capture(&s.flight);
        s.stage_flight.seed_flows(kStagedFlowBase);
        s.stage_trace.set_capture(&s.trace);
        s.stage_span.set_capture(&s.spans);
        s.ctx.local_cores = s.mask;
        s.ctx.deferred = &s.deferred;
        if (real_fault_) {
            // Shard 0 (the one holding the lowest populated core) forks
            // with salt 0: it inherits the master plan's current RNG
            // position, so a single-shard run consumes the exact stream
            // the serial engine would have.
            s.plan = real_fault_->fork(i == 0 ? 0 : s.cores.front());
            s.has_plan = true;
        }
    }
    // Give every process private ASID-tag and VDS-ctx-id blocks, reserved
    // here in deterministic shard/queue order, so concurrent allocators
    // never interleave on the shared counters.  A single-shard world
    // keeps drawing from the global counters directly: only one worker
    // runs, and reserving a block would advance the globals differently
    // than the serial engine, shifting raw tag values for every world
    // built later in the same binary (PCIDs wrap mod the arch width, so
    // raw values are behavior).
    if (shards_.size() < 2)
        return;
    for (auto &sp : shards_) {
        for (std::size_t c : sp->cores) {
            queues_[c].for_each([&](SimThread *t) {
                kernel::Process *p = process_for(*t);
                if (!p)
                    return;
                if (!p->asid_allocator().has_tag_block())
                    p->asid_allocator().set_tag_block(
                        kernel::reserve_asid_block(kAsidBlockSize),
                        kAsidBlockSize);
                if (!p->mm().has_ctx_block())
                    p->mm().set_ctx_block(
                        kernel::Vds::reserve_ctx_block(kCtxBlockSize),
                        kCtxBlockSize);
            });
        }
    }
}

void
Engine::finish_epoch_state()
{
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard &s = *shards_[i];
        s.stage_flight.set_capture(nullptr);
        s.stage_trace.set_capture(nullptr);
        s.stage_span.set_capture(nullptr);
        s.ctx.deferred = nullptr;
        s.error = nullptr;
        if (s.has_plan && real_fault_)
            real_fault_->absorb(s.plan, /*adopt_rng=*/i == 0);
        s.has_plan = false;
    }
    real_flight_ = nullptr;
    real_trace_ = nullptr;
    real_span_ = nullptr;
    real_fault_ = nullptr;
}

void
Engine::run_epochs(hw::Cycles deadline)
{
    if (shards_stale_)
        compute_shards();
    prepare_epoch_state();
    std::size_t nworkers = std::min(host_threads_, shards_.size());
    std::unique_ptr<Pool> pool;
    if (nworkers >= 2)
        pool = std::make_unique<Pool>(*this, nworkers);
    std::exception_ptr pending;
    std::vector<Shard *> batch;
    while (live_threads_ > 0) {
        hw::Cycles start = min_runnable_clock();
        if (start >= deadline)
            break;
        hw::Cycles horizon = std::min(deadline, start + quantum_);
        ++epochs_;
        batch.clear();
        for (auto &s : shards_)
            if (s->live > 0)
                batch.push_back(s.get());
        if (pool)
            pool->run_epoch(batch, horizon);
        else
            for (Shard *s : batch)
                run_shard_until(*s, horizon);
        // Epoch barrier, main thread only: drain staged telemetry and
        // apply deferred cross-shard effects in shard-index order, fold
        // counters, then surface the first error (by shard index).
        live_threads_ = 0;
        for (auto &s : shards_)
            drain_shard(*s);
        for (auto &s : shards_)
            apply_deferred(*s);
        for (auto &s : shards_) {
            live_threads_ += s->live;
            if (s->error && !pending) {
                pending = s->error;
                s->error = nullptr;
            }
        }
        if (pending)
            break;
    }
    pool.reset();
    finish_epoch_state();
    // Both serial-path caches went stale: the run moved clocks and
    // drained queues.
    pick_stale_ = true;
    shards_stale_ = true;
    if (pending)
        std::rethrow_exception(pending);
}

hw::Cycles
Engine::min_runnable_clock() const
{
    hw::Cycles best = std::numeric_limits<hw::Cycles>::max();
    for (const auto &s : shards_)
        for (std::size_t c : s->cores)
            if (!queues_[c].empty())
                best = std::min(best, machine_->core(c).now());
    return best;
}

void
Engine::run_shard_until(Shard &s, hw::Cycles horizon)
{
    telemetry::FlightRecorder *prev_flight = telemetry::flight_sink();
    Tracer *prev_trace = trace_sink();
    telemetry::SpanTracer *prev_span = telemetry::span_sink();
    FaultPlan *prev_fault = fault_sink();
    ExecContext *prev_ctx = exec_context();
    telemetry::set_flight_sink(real_flight_ ? &s.stage_flight : nullptr);
    set_trace_sink(real_trace_ ? &s.stage_trace : nullptr);
    telemetry::set_span_sink(real_span_ ? &s.stage_span : nullptr);
    set_fault_sink(s.has_plan ? &s.plan : nullptr);
    set_exec_context(&s.ctx);
    try {
        // The serial engine's min-clock loop over this shard's cores.
        // Clocks and queues changed since the last epoch (barrier-applied
        // remote flushes, drained threads), so the tree starts fresh.
        build_pick(s.pick, s.cores);
        while (s.live > 0) {
            std::size_t best = refresh_pick(s.pick);
            if (best == kNoCore || machine_->core(best).now() >= horizon)
                break;
            step_core(best, s.live, s.steps, s.switches);
        }
    } catch (...) {
        // Fail-stop injections (PowerLoss) and workload bugs: freeze the
        // shard as-is; staged records up to the throw still drain, and
        // the engine rethrows after the barrier.
        s.error = std::current_exception();
    }
    set_exec_context(prev_ctx);
    set_fault_sink(prev_fault);
    telemetry::set_span_sink(prev_span);
    set_trace_sink(prev_trace);
    telemetry::set_flight_sink(prev_flight);
}

std::uint64_t
Engine::remap_flow(Shard &s, std::uint64_t staged)
{
    auto [it, fresh] = s.flow_map.try_emplace(staged, 0);
    if (fresh)
        it->second = real_flight_ ? real_flight_->new_flow() : 0;
    return it->second;
}

void
Engine::drain_shard(Shard &s)
{
    steps_ += s.steps;
    s.steps = 0;
    context_switches_ += s.switches;
    s.switches = 0;
    if (real_flight_) {
        for (telemetry::FlightRecord rec : s.flight) {
            if (rec.flow >= kStagedFlowBase)
                rec.flow = remap_flow(s, rec.flow);
            real_flight_->record(rec);
        }
        s.flight.clear();
        s.stage_flight.seed_flows(kStagedFlowBase);
    }
    if (real_trace_) {
        // Replay directly into the tracer: sim::trace() would mirror into
        // the flight recorder a second time (the mirror was already
        // staged and drained above).
        for (const TraceRecord &rec : s.trace)
            real_trace_->record(rec);
        s.trace.clear();
    }
    if (real_span_) {
        for (const telemetry::SpanEvent &event : s.spans)
            real_span_->replay(event);
        s.spans.clear();
    }
}

void
Engine::apply_deferred(Shard &s)
{
    for (const RemoteFlush &rf : s.deferred) {
        std::uint64_t flow = rf.flow;
        if (flow >= kStagedFlowBase)
            flow = remap_flow(s, flow);
        kernel::ShootdownManager::apply_remote(
            machine_->core(rf.target),
            static_cast<kernel::FlushKind>(rf.kind), rf.asid, rf.vpn,
            rf.count, rf.target_current_asid, flow);
    }
    s.deferred.clear();
    // The map must outlive apply_deferred (deferred flows were allocated
    // during the drain), but not the barrier: ids never persist across
    // epochs.
    s.flow_map.clear();
}

}  // namespace vdom::sim
