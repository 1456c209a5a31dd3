"""Command-line pipeline driver.

Subcommands map to pipeline stages so intermediate artifacts stay
inspectable: ``validate``, ``analyze`` (full run), ``ucas``, ``ccf-catalog``,
``cutsets`` (solver only, exchange-format trees), and ``oracle-check``
(randomized solver-vs-brute-force equivalence).

Exit codes and error lines are decided in ``main`` alone: 0 success; 1 a
validation or analysis failure, with one ``error:`` line for each model issue
or for the library's error; 2 an I/O failure, with the operating system's
message.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

from . import ccf as ccfmod
from . import cutset as cutsetmod
from . import report as reportmod
from . import stpa as stpamod
from .faulttree import (
    EventKind,
    FaultTree,
    FaultTreeError,
    HARDWARE_KINDS,
    SOFTWARE_KINDS,
    build_hardware_fault_tree,
    filter_events,
    from_exchange_json,
    integrate_ucas,
)
from .sysmodel import (
    CcfPolicy,
    ModelError,
    ModelValidationError,
    SystemModel,
    derive_redundancy_groups,
    parse_system_model,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_IO = 2

_FILTER_ALIASES = {
    "hardware": HARDWARE_KINDS,
    "software": SOFTWARE_KINDS,
    "all": frozenset(EventKind),
}


class RunConfig(NamedTuple):
    """Options controlling one analyze run.

    ``out_dir`` None means ``$RESHA_OUT``, or ``./resha-out`` when that is
    unset or empty, read when the artifacts are written. ``ccf`` sets fields
    of the model's ``ccf_policy`` by name, read by its rules
    (``CcfPolicy.changed``).
    """

    model_path: Path
    top: str | None = None
    truncate: int | None = 4
    event_filter: frozenset[EventKind] | None = None
    out_dir: Path | None = None
    deterministic: bool = False
    ccf: Mapping[str, Any] = MappingProxyType({})


class Analysis(NamedTuple):
    """The in-memory results of one analyze run."""

    model: SystemModel
    control_structure: stpamod.ControlStructure
    ucas: tuple[stpamod.UcaRecord, ...]
    tree: FaultTree
    collection: cutsetmod.CutSetCollection
    spofs: cutsetmod.SpofReport
    worksheets: tuple[reportmod.CausalFactorWorksheet, ...]
    catalog: tuple[ccfmod.CcfEvent, ...]
    report: str
    root: str


def _parse_filter(text: str) -> frozenset[EventKind]:
    if text in _FILTER_ALIASES:
        return frozenset(_FILTER_ALIASES[text])
    kinds = set()
    for token in text.split(","):
        token = token.strip()
        try:
            kinds.add(EventKind(token))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"unknown event kind {token!r}; use hardware/software/all or kind names"
            ) from None
    return frozenset(kinds)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if value >= 1:
            return value
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _output_path(text: str) -> str:
    if text:
        return text
    raise argparse.ArgumentTypeError("must be a non-empty path")


def _oracle_event_count(text: str) -> int:
    value = _positive_int(text)
    limit = cutsetmod.DEFAULT_BRUTE_FORCE_LIMIT
    if value > limit:
        raise argparse.ArgumentTypeError(
            f"must be at most {limit}, the brute-force oracle's event limit, got {text!r}"
        )
    return value


def _default_top(model: SystemModel) -> str:
    for gate in model.gates:
        if gate.replicate is None:
            return gate.id
    raise FaultTreeError("model declares no gate outside a replicate template; specify --top")


def run_analysis(config: RunConfig) -> Analysis:
    """Execute the full pipeline and return the artifacts in memory.

    Each stage's own error propagates as it was raised: ``OSError``,
    ``ModelValidationError``, ``StpaError``, ``FaultTreeError``,
    ``CutSetError`` or ``GuidanceBankError``.
    """
    model = parse_system_model(config.model_path)
    policy = model.ccf_policy.changed(config.ccf)
    cs = stpamod.build_layered_control_structure(model)
    ucas = stpamod.enumerate_ucas(cs)
    selected = stpamod.select_ucas_for_top_event(ucas)

    # Any declared gate can serve as an analysis root, so a scope is simply a
    # different root; extraction from a wider tree would yield the same result.
    root = config.top if config.top is not None else _default_top(model)
    tree = integrate_ucas(build_hardware_fault_tree(model, root), selected)

    groups = derive_redundancy_groups(model)
    tree = ccfmod.inject_ccfs(tree, groups, policy)
    catalog = ccfmod.enumerate_ccf_catalog(groups, policy)
    if config.event_filter is not None:
        tree = filter_events(tree, config.event_filter)

    collection = cutsetmod.solve_minimal_cut_sets(tree, config.truncate)
    spofs = cutsetmod.extract_spofs(collection)
    worksheets = reportmod.generate_worksheets(model, spofs.spofs or spofs.fallback_sets, tree)
    excluded = config.event_filter is not None and not config.event_filter & SOFTWARE_KINDS
    document = reportmod.render_analysis_report(
        model, cs, ucas, tree, root, collection, spofs, worksheets, catalog=catalog,
        notes=["Software failures excluded by filter."] if excluded else [],
    )

    return Analysis(model, cs, ucas, tree, collection, spofs, worksheets, catalog, document, root)


def write_artifacts(config: RunConfig, artifacts: Analysis) -> Path:
    out_root = config.out_dir or Path(os.environ.get("RESHA_OUT") or "resha-out")
    run_dir = out_root if config.deterministic else out_root / time.strftime("run-%Y%m%d-%H%M%S")
    # Two unstamped runs in one second would share a directory; the second fails instead.
    run_dir.mkdir(parents=True, exist_ok=config.deterministic)

    tree = artifacts.tree
    descriptions = {e.id: e.description for e in tree.events.values()}

    (run_dir / "report.md").write_text(artifacts.report, encoding="utf-8")
    (run_dir / "ucas.csv").write_text(stpamod.uca_table_to_csv(artifacts.ucas), encoding="utf-8")
    (run_dir / "cutsets.csv").write_text(artifacts.collection.to_csv(), encoding="utf-8")
    (run_dir / "spofs.csv").write_text(
        reportmod.spof_table_to_csv(artifacts.spofs, descriptions), encoding="utf-8"
    )
    (run_dir / "ccf_catalog.csv").write_text(ccfmod.catalog_to_csv(artifacts.catalog), encoding="utf-8")
    (run_dir / "tree.json").write_text(artifacts.collection.exchange, encoding="utf-8")
    return run_dir


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out`` and say so, or print it when ``out`` is unset."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(text, end="")


def cmd_validate(args: argparse.Namespace) -> int:
    parse_system_model(args.model)
    print(f"{Path(args.model)}: valid")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    config = RunConfig(
        model_path=Path(args.model),
        top=args.top,
        truncate=args.truncate,
        event_filter=args.filter,
        out_dir=Path(args.out) if args.out else None,
        deterministic=args.deterministic,
        ccf={f: getattr(args, f) for f in CcfPolicy._fields if getattr(args, f) is not None},
    )
    artifacts = run_analysis(config)
    run_dir = write_artifacts(config, artifacts)

    print(f"scope: {artifacts.root}")
    for order, count, cumulative in artifacts.collection.rows(len(artifacts.tree.events)):
        print(f"order {order}: {count} cut sets ({cumulative} cumulative)")
    spofs = artifacts.spofs
    print(f"{len(spofs.spofs)} first-order cut sets")
    if not spofs.spofs and spofs.fallback_order is not None:
        print(f"lowest populated order: {spofs.fallback_order} ({len(spofs.fallback_sets)} sets)")
    print(f"artifacts written to {run_dir}")
    return EXIT_OK


def cmd_ucas(args: argparse.Namespace) -> int:
    model = parse_system_model(args.model)
    cs = stpamod.build_layered_control_structure(model)
    ucas = stpamod.enumerate_ucas(cs)
    if args.format == "markdown":
        _emit(stpamod.uca_table_to_markdown(cs, ucas), args.out)
    else:
        _emit(stpamod.uca_table_to_csv(ucas), args.out)
    print(
        f"potential UCAs: {len(ucas)}; "
        f"identified: {stpamod.identified_uca_count(ucas)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_ccf_catalog(args: argparse.Namespace) -> int:
    model = parse_system_model(args.model)
    groups = derive_redundancy_groups(model)
    _emit(ccfmod.catalog_to_csv(ccfmod.enumerate_ccf_catalog(groups, model.ccf_policy)), args.out)
    return EXIT_OK


def cmd_cutsets(args: argparse.Namespace) -> int:
    tree = from_exchange_json(Path(args.tree).read_bytes())
    collection = cutsetmod.solve_minimal_cut_sets(tree, args.truncate)
    _emit(collection.to_csv(), args.out)
    for order, count, cumulative in collection.rows(len(tree.events)):
        print(f"order {order}: {count} cut sets ({cumulative} cumulative)", file=sys.stderr)
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for i in range(args.trees):
        tree = cutsetmod.random_coherent_tree(
            rng, max_events=args.max_events, max_gates=args.max_gates
        )
        solver = cutsetmod.solve_minimal_cut_sets(tree)
        oracle = cutsetmod.brute_force_cut_sets(tree)
        mine = {c.events for c in solver.cut_sets}
        theirs = {c.events for c in oracle.cut_sets}
        if mine != theirs:
            failures += 1
            print(f"tree {i}: MISMATCH ({len(mine)} vs {len(theirs)} cut sets)", file=sys.stderr)
    if failures:
        print(f"oracle check FAILED on {failures}/{args.trees} trees")
        return EXIT_FAILURE
    print(f"oracle check passed on {args.trees} randomized trees (seed {args.seed})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resha",
        description="Redundancy-guided hazard analysis of digital I&C systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a model file")
    p_validate.add_argument("model")
    p_validate.set_defaults(func=cmd_validate)

    p_analyze = sub.add_parser("analyze", help="run the full pipeline")
    p_analyze.add_argument("--model", required=True)
    p_analyze.add_argument("--top", "--scope", dest="top",
                           help="root gate or node of the fault tree "
                                "(default: first declared gate that is not a replicate template)")
    p_analyze.add_argument("--truncate", type=_positive_int, default=4, help="maximum cut-set order (default 4)")
    p_analyze.add_argument("--no-truncate", dest="truncate", action="store_const", const=None)
    p_analyze.add_argument("--filter", type=_parse_filter, default=None,
                           help="keep only these event kinds (hardware/software/all or a list)")
    p_analyze.add_argument("--out", type=_output_path,
                           help="output directory (default $RESHA_OUT or ./resha-out)")
    p_analyze.add_argument("--deterministic", action="store_true",
                           help="write into --out itself, not a run-stamped subdirectory "
                                "(artifact bytes never depend on it)")
    # Each --ccf-* flag sets the CcfPolicy field it is stored under; run_analysis
    # reads the result by the rules of a model's ccf_policy.
    p_analyze.add_argument("--ccf-intra", dest="include_intra_division",
                           action=argparse.BooleanOptionalAction)
    p_analyze.add_argument("--ccf-cross", dest="include_cross_all_divisions",
                           action=argparse.BooleanOptionalAction)
    p_analyze.add_argument("--ccf-partial", dest="include_partial_interdivision",
                           action=argparse.BooleanOptionalAction)
    p_analyze.add_argument("--ccf-categories", dest="software_categories",
                           metavar="CCF_CATEGORIES",
                           type=lambda text: tuple(token.strip() for token in text.split(",")),
                           help="comma-separated UCA categories (a-d) for software CCFs")
    p_analyze.set_defaults(func=cmd_analyze)

    p_ucas = sub.add_parser("ucas", help="emit the UCA table")
    p_ucas.add_argument("--model", required=True)
    p_ucas.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p_ucas.add_argument("--out", type=_output_path)
    p_ucas.set_defaults(func=cmd_ucas)

    p_catalog = sub.add_parser("ccf-catalog", help="emit the CCF catalog")
    p_catalog.add_argument("--model", required=True)
    p_catalog.add_argument("--out", type=_output_path)
    p_catalog.set_defaults(func=cmd_ccf_catalog)

    p_cutsets = sub.add_parser("cutsets", help="solve an exchange-format tree")
    p_cutsets.add_argument("--tree", required=True)
    p_cutsets.add_argument("--truncate", type=_positive_int, default=None)
    p_cutsets.add_argument("--out", type=_output_path)
    p_cutsets.set_defaults(func=cmd_cutsets)

    p_oracle = sub.add_parser("oracle-check", help="randomized solver-vs-oracle equivalence")
    p_oracle.add_argument("--trees", type=_positive_int, default=500)
    p_oracle.add_argument("--seed", type=int, default=20260810)
    p_oracle.add_argument("--max-events", type=_oracle_event_count, default=12,
                          help=f"events per tree, 1-{cutsetmod.DEFAULT_BRUTE_FORCE_LIMIT} (default 12)")
    p_oracle.add_argument("--max-gates", type=_positive_int, default=8)
    p_oracle.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelValidationError as exc:
        for issue in exc.issues:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_FAILURE
    except (ModelError, stpamod.StpaError, FaultTreeError, cutsetmod.CutSetError,
            reportmod.GuidanceBankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
