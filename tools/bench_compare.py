#!/usr/bin/env python3
"""Warn-only comparison of two bench_report JSON files.

CI runs ``bench_report --quick`` and diffs the fresh report against the
committed baseline (BENCH_qpinn.json). Timing on shared runners is noisy,
so ns/op regressions only WARN by default; allocation counts are exact
(the pool counts them deterministically from the tape), so an allocs/op
increase is the signal to look at first.

The per-op timing threshold defaults to +/-25% and is overridable with
``--threshold`` (a fraction: 0.25 means a 1.25x slowdown warns). The last
line is a machine-readable verdict, e.g.::

    bench_compare: verdict=ok regressions=0 new=5 missing=0 threshold=0.25

Exit code is 0 unless ``--fail-on-regress`` (regressions only) or
``--strict`` (any finding) is passed, so the CI job stays warn-only until
the trajectory stabilizes enough to gate on.

Usage: tools/bench_compare.py --baseline BENCH_qpinn.json --current new.json
"""

from __future__ import annotations

import argparse
import json
import sys

ALLOC_WARN_DELTA = 0.5   # allocs/op increase threshold (exact metric)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def index(report: dict) -> dict:
    return {
        (r["suite"], r["op"], r["shape"]): r
        for r in report.get("results", [])
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="per-op ns/op regression fraction before a "
                             "warning fires (default 0.25 = 1.25x)")
    parser.add_argument("--fail-on-regress", action="store_true",
                        help="exit 1 when any regression is found")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on any finding, including new/missing "
                             "entries (default: warn only)")
    args = parser.parse_args()
    warn_ratio = 1.0 + args.threshold

    baseline, current = load(args.baseline), load(args.current)
    base_idx, cur_idx = index(baseline), index(current)

    regressions: list[str] = []
    findings: list[str] = []
    new_entries = 0
    for key, cur in sorted(cur_idx.items()):
        base = base_idx.get(key)
        name = "/".join(key)
        if base is None:
            new_entries += 1
            print(f"bench_compare: NEW {name} "
                  f"(ns/op {cur['ns_per_op']:.0f}, no baseline entry)")
            continue
        if base["ns_per_op"] > 0:
            ratio = cur["ns_per_op"] / base["ns_per_op"]
            if ratio > warn_ratio:
                regressions.append(
                    f"{name}: ns/op {base['ns_per_op']:.0f} -> "
                    f"{cur['ns_per_op']:.0f} ({ratio:.2f}x)")
        # The alloc counters are exact for single-threaded suites (the
        # pool counts deterministically from the tape). The dist rows run
        # several rank threads against the shared pool, so hits/misses
        # depend on thread interleaving — allocs/op there is noise on the
        # order of 1, not a tape property; only the timing gate applies.
        if key[0] != "dist" and (cur["allocs_per_op"]
                                 > base["allocs_per_op"] + ALLOC_WARN_DELTA):
            regressions.append(
                f"{name}: allocs/op {base['allocs_per_op']:.1f} -> "
                f"{cur['allocs_per_op']:.1f} (exact metric; real regression)")
    missing = sorted(base_idx.keys() - cur_idx.keys())
    for key in missing:
        findings.append(f"{'/'.join(key)}: present in baseline, missing now")

    base_sum = baseline.get("summary", {})
    cur_sum = current.get("summary", {})
    base_red = base_sum.get("alloc_reduction_x")
    cur_red = cur_sum.get("alloc_reduction_x")
    if cur_red is not None:
        print(f"bench_compare: alloc_reduction_x baseline={base_red} "
              f"current={cur_red}")
        if cur_red < 5.0:
            regressions.append(
                f"alloc_reduction_x {cur_red:.1f} below the 5x budget")

    # Plan-optimizer gates. Thunk counts and arena bytes are exact metrics
    # (deterministic properties of the captured tape, like the alloc
    # counters), so these are real regressions, not noise: every tracked
    # plan must shrink in both thunks and arena bytes, and the optimized
    # sizes must not grow past the baseline's. Every captured plan is
    # optimized, so a missing field is a regression too: it would
    # otherwise switch its gate off without a word.
    def plan_field(field: str):
        value = cur_sum.get(field)
        if value is None:
            regressions.append(f"{field}: missing from the current summary "
                               f"(plan gate cannot run)")
        return value

    for plan in ("fwd", "step", "tdse"):
        thunks_b = plan_field(f"{plan}_plan_thunks_before")
        thunks_a = plan_field(f"{plan}_plan_thunks_after")
        arena_b = plan_field(f"{plan}_plan_arena_bytes_before")
        arena_a = plan_field(f"{plan}_plan_arena_bytes_after")
        if None in (thunks_b, thunks_a, arena_b, arena_a):
            continue
        print(f"bench_compare: {plan}_plan thunks {thunks_b}->{thunks_a}"
              f" arena_bytes {arena_b}->{arena_a}")
        if thunks_a >= thunks_b:
            regressions.append(
                f"{plan}_plan: optimizer eliminated no thunks "
                f"({thunks_b} -> {thunks_a})")
        if arena_a >= arena_b:
            regressions.append(
                f"{plan}_plan: optimizer saved no arena bytes "
                f"({arena_b} -> {arena_a})")
        for field in (f"{plan}_plan_thunks_after",
                      f"{plan}_plan_arena_bytes_after"):
            base_v = base_sum.get(field)
            cur_v = cur_sum.get(field)
            if base_v is not None and cur_v > base_v:
                regressions.append(
                    f"{field} {base_v} -> {cur_v} "
                    f"(exact metric; optimizer lost ground)")

    # CSE gate: the TDSE training plan recomputes the RFF sin/cos and the
    # matmul-backward transposes at every differentiation order, so
    # common-subexpression elimination must merge some thunks there. Exact
    # metric, like the counts above.
    dedup = plan_field("tdse_plan_deduplicated")
    if dedup is not None:
        print(f"bench_compare: tdse_plan_deduplicated {dedup}")
        if dedup <= 0:
            regressions.append(
                "tdse_plan: common-subexpression elimination merged no "
                "thunks")

    # Fold gate: every matmul backward in the TDSE plan multiplies by a
    # transposed activation, so the transpose->matmul fold must rewrite
    # some of them onto matmul_tn. Exact metric, like the counts above.
    folded = plan_field("tdse_plan_folded")
    if folded is not None:
        print(f"bench_compare: tdse_plan_folded {folded}")
        if folded <= 0:
            regressions.append(
                "tdse_plan: the transpose->matmul fold rewrote no matmuls")

    # Mixed-precision gate: the demoted training-step replay must beat the
    # fp64 replay by >= 1.3x. Both sides are timed back-to-back in the same
    # bench_report run (same machine, same load), so unlike the raw ns/op
    # rows this ratio is stable enough to gate on.
    cur_mixed = cur_sum.get("mixed_speedup_x")
    if cur_mixed is not None:
        print(f"bench_compare: mixed_speedup_x "
              f"baseline={base_sum.get('mixed_speedup_x')} "
              f"current={cur_mixed}")
        if cur_mixed < 1.3:
            regressions.append(
                f"mixed_speedup_x {cur_mixed:.2f} below the 1.3x gate "
                f"(fp32 replay no longer pays for its conversions)")

    findings = regressions + findings
    for finding in findings:
        print(f"bench_compare: WARN {finding}")
    fail = bool((regressions and args.fail_on_regress)
                or (findings and args.strict))
    print(f"bench_compare: {len(cur_idx)} entries, {len(findings)} "
          f"warning(s) [{'FAIL' if fail else 'OK'}]")
    verdict = "regress" if regressions else "ok"
    print(f"bench_compare: verdict={verdict} regressions={len(regressions)} "
          f"new={new_entries} missing={len(missing)} "
          f"threshold={args.threshold}")
    return 1 if fail else 0


if __name__ == "__main__":
    sys.exit(main())
