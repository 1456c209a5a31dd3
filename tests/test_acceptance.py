"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances and counts are pinned here, not configurable.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from resha.cli import main
from resha.cutset import (
    brute_force_cut_sets,
    extract_spofs,
    solve_minimal_cut_sets,
    witness_check,
)
from resha.faulttree import HARDWARE_KINDS, SOFTWARE_KINDS, filter_events
from resha.fixtures import build_rts_document

from golden import EXPECTED_HARDWARE_SPOFS, EXPECTED_RPS_SPOFS, EXPECTED_UCA_TEXTS, PUBLISHED_COUNTS

ORACLE_TREES = 500
ORACLE_SEED = 20260810


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{status}: criterion {criterion} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def oracle_results():
    rng = random.Random(ORACLE_SEED)
    results = []
    start = time.perf_counter()
    for _ in range(ORACLE_TREES):
        tree = random_tree(rng)
        solver = solve_minimal_cut_sets(tree)
        oracle = brute_force_cut_sets(tree)
        results.append((tree, solver, oracle))
    elapsed = time.perf_counter() - start
    return results, elapsed


def random_tree(rng):
    from resha.cutset import random_coherent_tree

    return random_coherent_tree(rng, max_events=12, max_gates=8)


def test_criterion_1_oracle_equivalence(oracle_results):
    results, elapsed = oracle_results
    mismatches = 0
    for tree, solver, oracle in results:
        mine = {c.events for c in solver.cut_sets}
        theirs = {c.events for c in oracle.cut_sets}
        if mine != theirs:
            mismatches += 1
    _report(
        1,
        mismatches == 0 and elapsed < 30.0,
        f"{ORACLE_TREES} randomized trees, {mismatches} mismatches, {elapsed:.1f}s (< 30 s)",
    )


def test_criterion_2_witness_property(oracle_results, full_tree, rps_tree):
    results, _ = oracle_results
    failures = 0
    checked = 0
    for tree, solver, _ in results:
        for cut in solver.cut_sets:
            checked += 1
            if not witness_check(tree, cut):
                failures += 1
    fixture_css = solve_minimal_cut_sets(full_tree, 3)
    for cut in fixture_css.cut_sets:
        checked += 1
        if not witness_check(full_tree, cut):
            failures += 1
    # The full model has no sets at order <= 3; exercise the check on the
    # RPS scope as well so the fixture contributes real witnesses.
    for cut in solve_minimal_cut_sets(rps_tree, 2).cut_sets:
        checked += 1
        if not witness_check(rps_tree, cut):
            failures += 1
    _report(2, failures == 0, f"{checked} witness checks, {failures} exceptions")


def test_criterion_3_truncation_soundness():
    rng = random.Random(ORACLE_SEED + 1)
    bad = 0
    trees = 120
    for _ in range(trees):
        tree = random_tree(rng)
        full = {c.events for c in solve_minimal_cut_sets(tree).cut_sets}
        previous_rows = []
        for k in range(1, 7):
            truncated = solve_minimal_cut_sets(tree, k)
            got = {c.events for c in truncated.cut_sets}
            want = {s for s in full if len(s) <= k}
            rows = [(o, c) for o, c, _ in truncated.rows(len(tree.events))]
            if got != want or rows[: len(previous_rows)] != previous_rows:
                bad += 1
            previous_rows = rows
    _report(3, bad == 0, f"{trees} trees x k in 1..6, {bad} violations")


def test_criterion_4_rps_spof_table(rps_tree):
    start = time.perf_counter()
    css = solve_minimal_cut_sets(rps_tree, 1)
    elapsed = time.perf_counter() - start
    report = extract_spofs(css)
    names = sorted(c.sorted_events()[0] for c in report.spofs)
    expected = sorted(name for name, _ in EXPECTED_RPS_SPOFS)
    hardware = [n for n in names if "-HD-" in n]
    software = [n for n in names if "-SF-" in n]
    ok = (
        len(report.spofs) == 13
        and names == expected
        and len(hardware) == 5
        and len(software) == 8
        and all(c.contains_ccf for c in report.spofs)
        and elapsed < 5.0
    )
    _report(
        4,
        ok,
        f"RPS scope first order: {len(report.spofs)} sets, exact name match, "
        f"all CCF-flagged, {elapsed:.2f}s (< 5 s)",
    )


def test_criterion_5_full_model_null_spofs(full_tree):
    css = solve_minimal_cut_sets(full_tree, 3)
    counts = [total for _, _, total in css.rows(len(full_tree.events))]
    _report(5, counts == [0, 0, 0], f"full model orders 1-3: {counts} (expected [0, 0, 0])")


def test_criterion_6_uca_rendering(rts_ucas):
    by_id = {u.uca_id: u for u in rts_ucas}
    problems = []
    for ca_id, rows in EXPECTED_UCA_TEXTS.items():
        number = ca_id[2:]
        for category, expected in rows.items():
            record = by_id[f"UCA{number}{category}"]
            actual = record.text
            if actual != expected:
                problems.append(f"{ca_id}{category}: {actual!r} != {expected!r}")
            if category == "d" and record.applicable:
                problems.append(f"{ca_id}d should be not applicable")
    _report(6, not problems, f"CA18/CA20 verbatim texts, case D not applicable {problems}")


def test_criterion_7_reconstruction_order_of_magnitude(full_tree):
    css = solve_minimal_cut_sets(full_tree, 4)
    ours = css.rows(len(full_tree.events))[-1][2]
    published = PUBLISHED_COUNTS["full"][4]
    low, high = published / 10.0, published * 10.0
    print(
        "INFO: criterion 7 side-by-side (fixture vs published): "
        f"full order 4: {ours} vs {published}; "
        f"identified UCAs: 225 vs {PUBLISHED_COUNTS['identified_ucas']} "
        "(remaining published counts documented in the project docs)"
    )
    _report(
        7,
        low <= ours <= high,
        f"full-model order-4 count {ours} within 10x of published {published}",
    )


def test_criterion_8_deterministic_cli_runs(tmp_path):
    model_path = tmp_path / "rts.json"
    model_path.write_text(json.dumps(build_rts_document()), encoding="utf-8")
    outputs = []
    for sub in ("run1", "run2"):
        rc = main(
            [
                "analyze",
                "--model", str(model_path),
                "--scope", "RPS",
                "--truncate", "1",
                "--out", str(tmp_path / sub),
                "--deterministic",
            ]
        )
        assert rc == 0
        run_dir = tmp_path / sub
        outputs.append(
            {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()}
        )
    same = outputs[0] == outputs[1]
    _report(
        8,
        same and set(outputs[0]) >= {"report.md", "cutsets.csv", "spofs.csv", "ucas.csv"},
        f"two deterministic runs produced byte-identical artifacts ({sorted(outputs[0])})",
    )


def test_criterion_9_hardware_only_filter(rps_tree):
    filtered = filter_events(rps_tree, HARDWARE_KINDS)
    leftover = {e.kind for e in filtered.events.values()} & SOFTWARE_KINDS
    css = solve_minimal_cut_sets(filtered, 1)
    names = sorted(c.sorted_events()[0] for c in css.cut_sets)
    expected = sorted(EXPECTED_HARDWARE_SPOFS)
    _report(
        9,
        not leftover and names == expected,
        f"hardware-only tree has no software events; RPS first order = {names}",
    )
