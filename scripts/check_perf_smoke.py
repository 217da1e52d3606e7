#!/usr/bin/env python3
"""Perf-smoke regression gate for the host-time microbenchmarks.

Usage: scripts/check_perf_smoke.py BENCH_JSON REFERENCE_JSON

BENCH_JSON is bench_simperf's --json report (the repo record schema:
one record per case with metrics.cpu_time_ns_per_iter).  REFERENCE_JSON
is the checked-in bench/perf_reference.json: per-case reference ns/op
plus a multiplicative threshold.  A case fails when

    measured_ns > reference_ns * threshold

i.e. the gate only catches gross regressions (default threshold 2.0) so
that CI-runner noise and slower machines do not flap the build; the
intent is to catch an accidental return to O(n)/hashed hot paths, not
5% drift.  The "ratios" and "scaling" sections compare cases measured in
the same run, so they hold on any host speed.  Exits non-zero listing
every failing case.
"""

import json
import os
import sys


def check_scaling(ref, records, failures):
    """Parallel-engine scaling gate (reference key "scaling").

    Compares *wall-clock* time per iteration of BM_EngineParallelScaling
    at its widest host-thread arm against the 1-thread arm.  The bound is
    host-CPU-aware: on a multi-core runner the parallel arm must not be
    slower than max_ratio * serial (it should be faster); on a 1-2 CPU
    host there is no parallelism to win, so only a looser
    no-pessimization bound (max_ratio_low_cpu) applies.
    """
    spec = ref.get("scaling")
    if spec is None:
        return
    bench = spec["bench"]
    real = {}
    for rec in records:
        case = rec.get("config", {}).get("case", "")
        ns = rec.get("metrics", {}).get("real_time_ns_per_iter")
        if case.startswith(bench + "/") and ns is not None:
            real[int(case.rsplit("/", 1)[1])] = float(ns)
    arms = sorted(real)
    if 1 not in real or len(arms) < 2:
        failures.append(f"{bench}: scaling arms missing (got {arms})")
        return
    cpus = os.cpu_count() or 1
    wide = arms[-1]
    ratio = real[wide] / real[1]
    limit = float(spec["max_ratio"] if cpus >= 4
                  else spec["max_ratio_low_cpu"])
    verdict = "ok" if ratio <= limit else "FAIL"
    print(f"{bench}: t1={real[1] / 1e6:.2f}ms t{wide}={real[wide] / 1e6:.2f}ms"
          f" ratio {ratio:.2f} (limit {limit}, host_cpus {cpus}) {verdict}")
    if ratio > limit:
        failures.append(
            f"{bench}: {wide}-thread wall time is {ratio:.2f}x serial "
            f"(limit {limit} on a {cpus}-CPU host)")


def check_ratios(ref, measured, failures):
    """Same-run complexity gates (reference key "ratios").

    Each entry bounds the CPU time of one case as a fraction of another
    measured in the same run: measured[case] / measured[over] must not
    exceed max_ratio.  Pairing a few-live-entries TLB flush with a
    full-TLB flush this way fails when a flush goes back to costing
    O(capacity) instead of O(live entries), whatever the host's speed;
    pairing an x86-capacity TLB's construction with a 16-entry one's
    does the same for construction.
    """
    for spec in ref.get("ratios", []):
        case, over = spec["case"], spec["over"]
        if case not in measured or over not in measured:
            failures.append(f"{case} / {over}: missing from the run")
            continue
        ratio = measured[case] / measured[over]
        limit = float(spec["max_ratio"])
        verdict = "ok" if ratio <= limit else "FAIL"
        print(f"{case} / {over}: {measured[case]:.2f} / "
              f"{measured[over]:.2f} ns = ratio {ratio:.4f} "
              f"(limit {limit}) {verdict}")
        if ratio > limit:
            failures.append(
                f"{case}: {ratio:.4f}x of {over} (limit {limit})")


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    bench_path, ref_path = argv[1], argv[2]

    with open(bench_path) as f:
        records = json.load(f)
    with open(ref_path) as f:
        ref = json.load(f)

    threshold = float(ref["threshold"])
    measured = {}
    for rec in records:
        case = rec.get("config", {}).get("case")
        ns = rec.get("metrics", {}).get("cpu_time_ns_per_iter")
        if case is not None and ns is not None:
            measured[case] = float(ns)

    failures = []
    for case, ref_ns in ref["cases"].items():
        if case not in measured:
            failures.append(f"{case}: missing from {bench_path}")
            continue
        limit = float(ref_ns) * threshold
        got = measured[case]
        verdict = "ok" if got <= limit else "FAIL"
        print(f"{case}: {got:.2f} ns/op (reference {ref_ns}, "
              f"limit {limit:.2f}) {verdict}")
        if got > limit:
            failures.append(
                f"{case}: {got:.2f} ns/op exceeds {limit:.2f} "
                f"({ref_ns} * {threshold})")

    check_ratios(ref, measured, failures)
    check_scaling(ref, records, failures)

    if failures:
        sys.exit("perf-smoke regression:\n  " + "\n  ".join(failures))
    print(f"perf-smoke: {len(ref['cases'])} case(s) within "
          f"{threshold}x of reference")


if __name__ == "__main__":
    main(sys.argv)
