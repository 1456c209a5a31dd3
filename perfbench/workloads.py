"""The three benchmark workloads: inputs, one operation, and its correctness gate.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished. ``run`` is the timed operation; ``check``
runs after it, outside the timing, and returns a digest of everything the
operation produced plus a list of problems (empty when the output is right).

The reference figures below come from the reconstruction table in
``docs/fixture_notes.md`` and the packaged golden CSVs, whose bytes are
pinned here so that a change to them cannot pass silently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from pathlib import Path
from typing import Any, Iterator

MODEL = "src/resha/data/rts_model.json"
GOLDEN_SPOFS = "src/resha/data/expected_spofs.csv"
GOLDEN_UCAS = "src/resha/data/expected_ucas.csv"
PINNED_SHA256 = {
    MODEL: "a6c9c01f63c2229536421e89414a078e1568498270100610d3fd59bc492842ef",
    GOLDEN_SPOFS: "ea93774d0d4ed266e5142dab36a57ba7d2e62f79734ebffc42de216c8eb591d5",
    GOLDEN_UCAS: "6b01280cbbfa170e43d16726d139c40f38a7fa5fdd806fcd70b1d74c65a252de",
}

# Published anchors reproduced by the reference model (docs/fixture_notes.md).
FULL_ORDER4 = {4: 468}
RPS_ORDER1 = {1: 13}
AUTO_ORDER2 = {2: 52}
HARDWARE_SPOFS = 5
CONTROL_ACTIONS = 77
UCA_COUNTS_LINE = "potential UCAs: 308; identified: 225"

ORACLE_MAX_EVENTS = 20
ORACLE_MAX_GATES = 20
ORACLE_ORDERS = (1, 2, 3)


def check_pinned_files(root: Path) -> list[str]:
    """Problems with the model and golden files the gates depend on."""
    problems = []
    for rel, digest in PINNED_SHA256.items():
        path = root / rel
        if not path.is_file():
            problems.append(f"{rel} is missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{rel} differs from the pinned reference")
    return problems


def _orders(cutsets_csv: str) -> dict[int, int]:
    counts: dict[int, int] = {}
    for line in cutsets_csv.splitlines()[1:]:
        order = int(line.split(",", 1)[0])
        counts[order] = counts.get(order, 0) + 1
    return counts


def _dir_digest(path: Path, h: Any) -> dict[str, bytes]:
    files = {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}
    for name, data in files.items():
        h.update(name.encode() + b"\0" + data + b"\0")
    return files


class CliWorkload:
    """Operations made of ``resha`` CLI commands run in-process through ``main``."""

    def __init__(self, root: Path, out_dir: Path) -> None:
        from resha import cli

        self.cli = cli
        self.model = str(root / MODEL)
        self.out_dir = out_dir
        self.golden_spofs = (root / GOLDEN_SPOFS).read_text(encoding="utf-8")
        self.golden_ucas = (root / GOLDEN_UCAS).read_text(encoding="utf-8")

    def commands(self) -> list[tuple[list[str], str | None]]:
        """(argv, artifact directory or None) for each command of one op."""
        raise NotImplementedError

    def inputs(self) -> Iterator[tuple[int, None]]:
        """(key, input) pairs; every operation of a CLI workload has the same input."""
        return itertools.repeat((0, None))

    def run(self, _item: None) -> list[tuple[int, str, str]]:
        outputs = []
        for argv, _ in self.commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            outputs.append((rc, out.getvalue(), err.getvalue()))
        return outputs

    def check(self, _item: None, outputs: list[tuple[int, str, str]]) -> tuple[str, list[str]]:
        h = hashlib.sha256()
        problems: list[str] = []
        artifacts: dict[str, dict[str, bytes]] = {}
        for (argv, out_dir), (rc, out, err) in zip(self.commands(), outputs):
            h.update(repr((argv, rc, out)).encode())
            if rc != 0:
                problems.append(f"{argv[0]}: exit {rc}: {err.strip()[-200:]}")
                continue
            if out_dir is not None:
                artifacts[out_dir] = _dir_digest(Path(out_dir), h)
        if not problems:
            problems.extend(self.gate(outputs, artifacts))
        return h.hexdigest(), problems

    def gate(self, outputs: list[tuple[int, str, str]],
             artifacts: dict[str, dict[str, bytes]]) -> list[str]:
        raise NotImplementedError

    def analyze(self, name: str, *flags: str) -> tuple[list[str], str]:
        out = str(self.out_dir / name)
        return ["analyze", "--model", self.model, *flags, "--deterministic", "--out", out], out


class RtsOrder4(CliWorkload):
    """The full RTS model at order 4: the published 468-set anchor, solver-bound."""

    def commands(self):
        return [self.analyze("full-4", "--truncate", "4")]

    def gate(self, outputs, artifacts):
        (files,) = artifacts.values()
        got = _orders(files["cutsets.csv"].decode("utf-8"))
        return [] if got == FULL_ORDER4 else [f"full@4 cut sets {got} != {FULL_ORDER4}"]


class SpofScreen(CliWorkload):
    """An analyst session of six quick commands: front-end and report bound."""

    def commands(self):
        return [
            (["validate", self.model], None),
            (["ucas", "--model", self.model, "--format", "markdown"], None),
            (["ccf-catalog", "--model", self.model], None),
            self.analyze("rps-1", "--scope", "RPS", "--truncate", "1"),
            self.analyze("rps-1-hw", "--scope", "RPS", "--truncate", "1", "--filter", "hardware"),
            self.analyze("auto-2", "--scope", "AUTO", "--truncate", "2"),
        ]

    def gate(self, outputs, artifacts):
        problems = []
        validate, ucas, catalog = outputs[:3]
        if not validate[1].rstrip().endswith(": valid"):
            problems.append("validate did not report the model valid")
        rows = sum(1 for line in ucas[1].splitlines() if line.startswith("| CA"))
        if rows != CONTROL_ACTIONS:
            problems.append(f"UCA markdown table has {rows} control actions, not {CONTROL_ACTIONS}")
        if UCA_COUNTS_LINE not in ucas[2]:
            problems.append(f"ucas did not report {UCA_COUNTS_LINE!r}")
        if not catalog[1].startswith("name,class,scope,kind,category,members\n"):
            problems.append("ccf-catalog did not print the catalog CSV")

        rps, hardware, auto = artifacts.values()
        if _orders(rps["cutsets.csv"].decode("utf-8")) != RPS_ORDER1:
            problems.append("RPS@1 does not give 13 first-order cut sets")
        if rps["spofs.csv"].decode("utf-8") != self.golden_spofs:
            problems.append("RPS@1 SPOF table differs from expected_spofs.csv")
        for files in artifacts.values():
            if files["ucas.csv"].decode("utf-8") != self.golden_ucas:
                problems.append("UCA table differs from expected_ucas.csv")
                break
        golden_hw = [line for line in self.golden_spofs.splitlines() if "-HD-" in line]
        got_hw = hardware["spofs.csv"].decode("utf-8").splitlines()[1:]
        if len(got_hw) != HARDWARE_SPOFS or [r.split(",", 1)[1] for r in got_hw] != [
            r.split(",", 1)[1] for r in golden_hw
        ]:
            problems.append("hardware-only RPS@1 SPOFs differ from the 5 hardware rows")
        got = _orders(auto["cutsets.csv"].decode("utf-8"))
        if got != AUTO_ORDER2:
            problems.append(f"AUTO@2 cut sets {got} != {AUTO_ORDER2}")
        return problems


class OracleRandom:
    """Seeded random small coherent trees checked against the exhaustive oracle."""

    def __init__(self, root: Path, out_dir: Path, seed: int) -> None:
        from resha import cutset

        self.cutset = cutset
        self.rng = random.Random(seed)

    def inputs(self) -> Iterator[tuple[int, Any]]:
        # Each tree is made before its operation is timed; a seed always gives
        # the same sequence of trees.
        for key in itertools.count():
            yield key, self.cutset.random_coherent_tree(
                self.rng, max_events=ORACLE_MAX_EVENTS, max_gates=ORACLE_MAX_GATES
            )

    def run(self, tree: Any) -> tuple[Any, list[Any], Any, list[bool]]:
        # Calls go through the module so that the traced run sees them.
        full = self.cutset.solve_minimal_cut_sets(tree)
        truncated = [self.cutset.solve_minimal_cut_sets(tree, k) for k in ORACLE_ORDERS]
        oracle = self.cutset.brute_force_cut_sets(tree)
        witnesses = [self.cutset.witness_check(tree, c) for c in full.cut_sets]
        return full, truncated, oracle, witnesses

    def check(self, tree: Any, result: tuple) -> tuple[str, list[str]]:
        full, truncated, oracle, witnesses = result
        solved = {c.events for c in full.cut_sets}
        h = hashlib.sha256()
        for collection in (full, *truncated, oracle):
            h.update(repr(sorted(sorted(c.events) for c in collection.cut_sets)).encode())
        problems = []
        if solved != {c.events for c in oracle.cut_sets}:
            problems.append("solver and brute-force oracle disagree")
        if not all(witnesses):
            problems.append("a minimality witness failed")
        for k, collection in zip(ORACLE_ORDERS, truncated):
            if {c.events for c in collection.cut_sets} != {s for s in solved if len(s) <= k}:
                problems.append(f"order-{k} result is not the filtered untruncated result")
        return h.hexdigest(), problems


WORKLOADS = {
    "rts-order4": lambda root, out, seed: RtsOrder4(root, out),
    "spof-screen": lambda root, out, seed: SpofScreen(root, out),
    "oracle-random": OracleRandom,
}
