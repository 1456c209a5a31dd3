"""Command-line pipeline driver.

Subcommands map to pipeline stages so intermediate artifacts stay
inspectable: ``validate``, ``analyze`` (full run), ``ucas``, ``ccf-catalog``,
``cutsets`` (solver only, exchange-format trees), and ``oracle-check``
(randomized solver-vs-brute-force equivalence).

Exit codes: 0 success, 1 validation or analysis failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from pathlib import Path
from typing import NamedTuple

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
    to_exchange_json,
)
from .sysmodel import (
    CcfPolicy,
    ModelError,
    ModelValidationError,
    SystemModel,
    UCA_CATEGORIES,
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


class StageError(Exception):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[stage: {stage}] {cause}")
        self.stage = stage
        self.cause = cause


class RunConfig(NamedTuple):
    """Options controlling one analyze run.

    ``out_dir`` None means ``$RESHA_OUT`` or ``./resha-out``, read when the
    artifacts are written.
    """

    model_path: Path
    top: str | None = None
    kind: stpamod.TopEventKind = stpamod.TopEventKind.FAILURE_TO_ACT
    truncate: int | None = 4
    event_filter: frozenset[EventKind] | None = None
    out_dir: Path | None = None
    deterministic: bool = False
    ccf_intra: bool | None = None
    ccf_cross: bool | None = None
    ccf_partial: bool | None = None
    ccf_categories: tuple[str, ...] | None = None


def _existing(path: str | Path, what: str) -> Path:
    """``path`` as a Path; a missing file raises with a one-line message."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{what} file not found: {path}")
    return path


def _load_model(path: str | Path) -> SystemModel:
    return parse_system_model(_existing(path, "model"))


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


def _parse_categories(text: str) -> tuple[str, ...]:
    categories = tuple(token.strip() for token in text.split(","))
    for token in categories:
        if token not in UCA_CATEGORIES:
            raise argparse.ArgumentTypeError(
                f"unknown UCA category {token!r}; use a comma-separated subset of a,b,c,d"
            )
    return categories


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if value >= 1:
            return value
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _oracle_event_count(text: str) -> int:
    value = _positive_int(text)
    limit = cutsetmod.DEFAULT_BRUTE_FORCE_LIMIT
    if value > limit:
        raise argparse.ArgumentTypeError(
            f"must be at most {limit}, the brute-force oracle's event limit, got {text!r}"
        )
    return value


def _effective_policy(model: SystemModel, config: RunConfig) -> CcfPolicy:
    base = model.ccf_policy
    return CcfPolicy(
        include_intra_division=(
            base.include_intra_division if config.ccf_intra is None else config.ccf_intra
        ),
        include_cross_all_divisions=(
            base.include_cross_all_divisions if config.ccf_cross is None else config.ccf_cross
        ),
        include_partial_interdivision=(
            base.include_partial_interdivision if config.ccf_partial is None else config.ccf_partial
        ),
        software_categories=(
            base.software_categories if config.ccf_categories is None else config.ccf_categories
        ),
    )


def _default_top(model: SystemModel) -> str:
    if not model.gates:
        raise FaultTreeError("model declares no gates; specify a node id as --top")
    return model.gates[0].id


def run_analysis(config: RunConfig) -> dict[str, object]:
    """Execute the full pipeline and return the artifacts in memory."""
    try:
        model = _load_model(config.model_path)
    except ModelError as exc:
        raise StageError("parse", exc) from exc

    try:
        cs = stpamod.build_layered_control_structure(model)
        ucas = stpamod.enumerate_ucas(cs, model.hazards)
        selected = stpamod.select_ucas_for_top_event(ucas, config.kind)
    except stpamod.StpaError as exc:
        raise StageError("stpa", exc) from exc

    # Any declared gate can serve as an analysis root, so a scope is simply a
    # different root; extraction from a wider tree would yield the same result.
    try:
        root = config.top or _default_top(model)
        tree = build_hardware_fault_tree(model, root)
    except FaultTreeError as exc:
        raise StageError("fault-tree", exc) from exc

    try:
        tree = integrate_ucas(tree, selected)
    except FaultTreeError as exc:
        raise StageError("integrate", exc) from exc

    try:
        groups = derive_redundancy_groups(model)
        policy = _effective_policy(model, config)
        tree = ccfmod.inject_ccfs(tree, groups, policy)
        catalog = ccfmod.enumerate_ccf_catalog(groups, policy)
    except Exception as exc:
        raise StageError("ccf", exc) from exc

    if config.event_filter is not None:
        try:
            tree = filter_events(tree, config.event_filter)
        except FaultTreeError as exc:
            raise StageError("filter", exc) from exc

    try:
        collection = cutsetmod.solve_minimal_cut_sets(tree, config.truncate)
    except cutsetmod.CutSetError as exc:
        raise StageError("solve", exc) from exc

    try:
        spofs = cutsetmod.extract_spofs(collection)
        worksheets = reportmod.generate_worksheets(
            model, spofs.spofs or spofs.fallback_sets, ucas, tree
        )
        notes = []
        if config.event_filter is not None and not (
            config.event_filter & SOFTWARE_KINDS
        ):
            notes.append("Software failures excluded by filter.")
        document = reportmod.render_analysis_report(
            model,
            cs,
            ucas,
            tree,
            root,
            collection,
            spofs,
            worksheets,
            catalog=catalog,
            notes=notes,
        )
    except Exception as exc:
        raise StageError("report", exc) from exc

    return {
        "model": model,
        "control_structure": cs,
        "ucas": ucas,
        "tree": tree,
        "collection": collection,
        "spofs": spofs,
        "worksheets": worksheets,
        "catalog": catalog,
        "report": document,
        "root": root,
    }


def write_artifacts(config: RunConfig, artifacts: dict[str, object]) -> Path:
    out_root = config.out_dir or Path(os.environ.get("RESHA_OUT", "resha-out"))
    if config.deterministic:
        run_dir = out_root
    else:
        stamp = time.strftime("run-%Y%m%d-%H%M%S")
        run_dir = out_root / stamp
    run_dir.mkdir(parents=True, exist_ok=True)

    tree: FaultTree = artifacts["tree"]  # type: ignore[assignment]
    collection = artifacts["collection"]
    spofs = artifacts["spofs"]
    ucas = artifacts["ucas"]
    catalog = artifacts["catalog"]
    descriptions = {e.id: e.description for e in tree.events.values()}

    (run_dir / "report.md").write_text(artifacts["report"], encoding="utf-8")  # type: ignore[arg-type]
    (run_dir / "ucas.csv").write_text(stpamod.uca_table_to_csv(ucas), encoding="utf-8")  # type: ignore[arg-type]
    (run_dir / "cutsets.csv").write_text(collection.to_csv(), encoding="utf-8")  # type: ignore[union-attr]
    (run_dir / "spofs.csv").write_text(
        reportmod.spof_table_to_csv(spofs, descriptions), encoding="utf-8"  # type: ignore[arg-type]
    )
    (run_dir / "ccf_catalog.csv").write_text(ccfmod.catalog_to_csv(catalog), encoding="utf-8")  # type: ignore[arg-type]
    (run_dir / "tree.json").write_text(to_exchange_json(tree), encoding="utf-8")
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
    path = Path(args.model)
    try:
        _load_model(path)
    except ModelValidationError as exc:
        for issue in exc.issues:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"{path}: valid")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    config = RunConfig(
        model_path=Path(args.model),
        top=args.top,
        kind=stpamod.TopEventKind(args.kind),
        truncate=args.truncate,
        event_filter=args.filter,
        out_dir=Path(args.out) if args.out else None,
        deterministic=args.deterministic,
        ccf_intra=args.ccf_intra,
        ccf_cross=args.ccf_cross,
        ccf_partial=args.ccf_partial,
        ccf_categories=args.ccf_categories,
    )
    try:
        artifacts = run_analysis(config)
        run_dir = write_artifacts(config, artifacts)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    collection = artifacts["collection"]
    print(f"scope: {artifacts['root']}")
    for order, count, cumulative in collection.rows():  # type: ignore[union-attr]
        print(f"order {order}: {count} cut sets ({cumulative} cumulative)")
    spofs = artifacts["spofs"]
    n_spof = len(spofs.spofs)  # type: ignore[union-attr]
    print(f"{n_spof} first-order cut sets")
    if not n_spof and spofs.fallback_order is not None:  # type: ignore[union-attr]
        print(
            f"lowest populated order: {spofs.fallback_order} "  # type: ignore[union-attr]
            f"({len(spofs.fallback_sets)} sets)"  # type: ignore[union-attr]
        )
    print(f"artifacts written to {run_dir}")
    return EXIT_OK


def cmd_ucas(args: argparse.Namespace) -> int:
    try:
        model = _load_model(args.model)
        cs = stpamod.build_layered_control_structure(model)
        ucas = stpamod.enumerate_ucas(cs, model.hazards)
    except (ModelError, stpamod.StpaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if args.format == "markdown":
        _emit(stpamod.uca_table_to_markdown(cs, ucas), args.out)
    else:
        _emit(stpamod.uca_table_to_csv(ucas), args.out)
    print(
        f"potential UCAs: {stpamod.potential_uca_count(ucas)}; "
        f"identified: {stpamod.identified_uca_count(ucas)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_ccf_catalog(args: argparse.Namespace) -> int:
    try:
        model = _load_model(args.model)
        groups = derive_redundancy_groups(model)
        catalog = ccfmod.enumerate_ccf_catalog(groups, model.ccf_policy)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _emit(ccfmod.catalog_to_csv(catalog), args.out)
    return EXIT_OK


def cmd_cutsets(args: argparse.Namespace) -> int:
    try:
        tree = from_exchange_json(_existing(args.tree, "tree").read_text(encoding="utf-8"))
        collection = cutsetmod.solve_minimal_cut_sets(tree, args.truncate)
    except (FaultTreeError, cutsetmod.CutSetError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _emit(collection.to_csv(), args.out)
    for order, count, cumulative in collection.rows():
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
                           help="root gate or node of the fault tree (default: first declared gate)")
    p_analyze.add_argument(
        "--kind",
        choices=[k.value for k in stpamod.TopEventKind],
        default=stpamod.TopEventKind.FAILURE_TO_ACT.value,
    )
    p_analyze.add_argument("--truncate", type=_positive_int, default=4, help="maximum cut-set order (default 4)")
    p_analyze.add_argument("--no-truncate", dest="truncate", action="store_const", const=None)
    p_analyze.add_argument("--filter", type=_parse_filter, default=None,
                           help="keep only these event kinds (hardware/software/all or a list)")
    p_analyze.add_argument("--out", help="output directory (default $RESHA_OUT or ./resha-out)")
    p_analyze.add_argument("--deterministic", action="store_true",
                           help="pin output names and bytes for reproducible runs")
    p_analyze.add_argument("--ccf-intra", action=argparse.BooleanOptionalAction, default=None)
    p_analyze.add_argument("--ccf-cross", action=argparse.BooleanOptionalAction, default=None)
    p_analyze.add_argument("--ccf-partial", action=argparse.BooleanOptionalAction, default=None)
    p_analyze.add_argument("--ccf-categories", type=_parse_categories,
                           help="comma-separated UCA categories (a-d) for software CCFs")
    p_analyze.set_defaults(func=cmd_analyze)

    p_ucas = sub.add_parser("ucas", help="emit the UCA table")
    p_ucas.add_argument("--model", required=True)
    p_ucas.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p_ucas.add_argument("--out")
    p_ucas.set_defaults(func=cmd_ucas)

    p_catalog = sub.add_parser("ccf-catalog", help="emit the CCF catalog")
    p_catalog.add_argument("--model", required=True)
    p_catalog.add_argument("--out")
    p_catalog.set_defaults(func=cmd_ccf_catalog)

    p_cutsets = sub.add_parser("cutsets", help="solve an exchange-format tree")
    p_cutsets.add_argument("--tree", required=True)
    p_cutsets.add_argument("--truncate", type=_positive_int, default=None)
    p_cutsets.add_argument("--out")
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
