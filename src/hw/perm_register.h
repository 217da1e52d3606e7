/// \file
/// Per-core (hardware-thread) domain permission register: PKRU or DACR.

#pragma once

#include <array>
#include <cstdint>

#include "hw/perm.h"
#include "telemetry/metrics.h"

namespace vdom::hw {

/// Model of the per-core permission register.
///
/// Both Intel PKRU and ARM DACR pack one 2-bit access-rights field per
/// hardware domain into a 32-bit register.  The register is part of the
/// thread context: the kernel saves/restores it across context switches and
/// the VDom algorithm rewrites it when the (pdom, vdom) mapping of the
/// thread's VDS changes (Fig. 3: "permission bits P24 are moved ... in line
/// with the remapping").
class PermRegister {
  public:
    static constexpr std::size_t kSlots = 16;

    /// The per-pdom rights, one slot per hardware domain.
    using Slots = std::array<Perm, kSlots>;

    PermRegister() { reset(); }

    /// Resets to the hardware default: full access to pdom0, access
    /// disabled on every other pdom (the safe boot state VDom installs).
    void
    reset()
    {
        slots_.fill(Perm::kAccessDisable);
        slots_[0] = Perm::kFullAccess;
    }

    /// Reads the rights for \p pdom.
    Perm get(std::uint8_t pdom) const { return slots_[pdom]; }

    /// Writes the rights for \p pdom.
    void
    set(std::uint8_t pdom, Perm perm)
    {
        slots_[pdom] = perm;
        telemetry::metric_add(telemetry::Metric::kPermRegWrite, 1, owner_);
    }

    /// Returns the raw 32-bit register image (PKRU layout: 2 bits/pdom).
    std::uint32_t
    raw() const
    {
        std::uint32_t value = 0;
        for (std::size_t i = 0; i < kSlots; ++i)
            value |= static_cast<std::uint32_t>(slots_[i]) << (2 * i);
        return value;
    }

    /// Loads a raw 32-bit register image.
    void
    load_raw(std::uint32_t value)
    {
        for (std::size_t i = 0; i < kSlots; ++i)
            slots_[i] = static_cast<Perm>((value >> (2 * i)) & 0x3u);
        telemetry::metric_add(telemetry::Metric::kPermRegWrite, 1, owner_);
    }

    /// The current slots (a saved image for load_slots()).
    const Slots &slots() const { return slots_; }

    /// Loads a saved image that took \p writes set() calls to build,
    /// booking those writes in one metric update.
    void
    load_slots(const Slots &slots, std::uint64_t writes)
    {
        slots_ = slots;
        if (writes != 0)
            telemetry::metric_add(telemetry::Metric::kPermRegWrite, writes,
                                  owner_);
    }

    /// Telemetry shard for write metrics (the owning core's id).
    void set_owner(std::size_t owner) { owner_ = owner; }

    bool
    operator==(const PermRegister &other) const
    {
        return slots_ == other.slots_;
    }

  private:
    Slots slots_;
    std::size_t owner_ = 0;
};

}  // namespace vdom::hw
