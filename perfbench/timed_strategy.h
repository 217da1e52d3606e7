/// \file
/// A forwarding apps::Strategy that times every virtual call on the host.
///
/// The benchmark's traced run wraps each world's protection strategy in a
/// TimedStrategy, so the host time an application model spends inside the
/// protection layer (VDom, libmpk, EPK, or the unprotected original) is
/// separated from the time spent in the engine and the workload itself.
/// The wrapper only forwards: it charges no simulated cycles, so a wrapped
/// run's elapsed cycles and CycleBreakdown equal the unwrapped run's
/// (perfbench/timed_strategy_test.cc pins this for every strategy kind).

#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "apps/strategy.h"

namespace vdom::perfbench {

/// The Strategy entry points the wrapper times.
enum class Call : std::uint8_t {
    kThreadInit,
    kRegister,
    kAttach,
    kEnable,
    kDisable,
    kAccess,
    kWork,
    kIo,
    kNumCalls,
};

constexpr std::size_t kNumCalls = static_cast<std::size_t>(Call::kNumCalls);

/// Call counts and host nanoseconds per entry point.
struct CallStats {
    std::array<std::uint64_t, kNumCalls> calls{};
    std::array<std::uint64_t, kNumCalls> ns{};

    std::uint64_t count(Call c) const
    {
        return calls[static_cast<std::size_t>(c)];
    }

    std::uint64_t nanos(Call c) const
    {
        return ns[static_cast<std::size_t>(c)];
    }

    std::uint64_t
    total_calls() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t n : calls)
            sum += n;
        return sum;
    }

    std::uint64_t
    total_ns() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t n : ns)
            sum += n;
        return sum;
    }

    CallStats &
    operator+=(const CallStats &other)
    {
        for (std::size_t i = 0; i < kNumCalls; ++i) {
            calls[i] += other.calls[i];
            ns[i] += other.ns[i];
        }
        return *this;
    }
};

/// Forwards every call to \p inner and adds its host duration to \p stats.
/// Both must outlive the wrapper.  Single-threaded use only: the benchmark
/// runs the engine with one host thread.
class TimedStrategy final : public apps::Strategy {
  public:
    TimedStrategy(apps::Strategy &inner, CallStats &stats)
        : inner_(&inner), stats_(&stats)
    {
    }

    const char *name() const override { return inner_->name(); }

    void
    thread_init(hw::Core &core, kernel::Task &task) override
    {
        Scope s(*stats_, Call::kThreadInit);
        inner_->thread_init(core, task);
    }

    int
    register_object(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
                    std::uint64_t pages, bool frequent) override
    {
        Scope s(*stats_, Call::kRegister);
        return inner_->register_object(core, task, vpn, pages, frequent);
    }

    void
    attach_pages(hw::Core &core, kernel::Task &task, int obj, hw::Vpn vpn,
                 std::uint64_t pages) override
    {
        Scope s(*stats_, Call::kAttach);
        inner_->attach_pages(core, task, obj, vpn, pages);
    }

    bool
    enable(hw::Core &core, kernel::Task &task, int obj, VPerm perm) override
    {
        Scope s(*stats_, Call::kEnable);
        return inner_->enable(core, task, obj, perm);
    }

    void
    disable(hw::Core &core, kernel::Task &task, int obj) override
    {
        Scope s(*stats_, Call::kDisable);
        inner_->disable(core, task, obj);
    }

    void
    access(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
           bool write) override
    {
        Scope s(*stats_, Call::kAccess);
        inner_->access(core, task, vpn, write);
    }

    void
    work(hw::Core &core, hw::Cycles cycles) override
    {
        Scope s(*stats_, Call::kWork);
        inner_->work(core, cycles);
    }

    void
    io(hw::Core &core, hw::Cycles cycles) override
    {
        Scope s(*stats_, Call::kIo);
        inner_->io(core, cycles);
    }

  private:
    using Clock = std::chrono::steady_clock;

    /// Adds the enclosing call's duration on scope exit.
    class Scope {
      public:
        Scope(CallStats &stats, Call call)
            : stats_(&stats), call_(static_cast<std::size_t>(call)),
              start_(Clock::now())
        {
        }

        ~Scope()
        {
            auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start_);
            stats_->calls[call_] += 1;
            stats_->ns[call_] += static_cast<std::uint64_t>(ns.count());
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        CallStats *stats_;
        std::size_t call_;
        Clock::time_point start_;
    };

    apps::Strategy *inner_;
    CallStats *stats_;
};

}  // namespace vdom::perfbench
