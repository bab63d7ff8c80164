"""Command-line front end.

Subcommands generate, inspect and transform access structures, compute
share-size bounds with certificates, replay certificates, and run the
lemma and chain regression suites.  Output is deterministic JSON (stable
key order, rationals as "p/q" strings, no floats) or a human-readable
text rendering that prints sets as (1,2) tuples and the purifying party
as ``p``.

Exit codes: 0 success / implied / verified; 1 a checked property fails
or a certificate is rejected; 2 usage error or malformed input; 3
capacity or element limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .simplex import SimplexError, rat_str
from .prover import (
    DEFAULT_ELEMENT_LIMIT,
    Objective,
    ProverError,
    cached_system,
    certificate_from_json_dict,
    lemma_suite,
    prepare_structure,
    share_bound,
    theorem3_chain,
    verify_certificate,
)
from .structures import (
    AccessStructure,
    CapacityError,
    StructureError,
    csirmaz,
    dual,
    is_quantum,
    is_self_dual,
    purify,
    structure_from_dict,
    structure_to_dict,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class UsageError(Exception):
    pass


class InvalidStructureError(UsageError):
    """Well-formed JSON that is not a valid access structure."""


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _check_writable(path: str | None) -> None:
    """Refuse an output path in a missing directory before any work is done."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(parent):
        raise UsageError(f"cannot write {path}: no directory {parent}")


def _dump_json(data: dict, out: str | None) -> None:
    _emit(json.dumps(data, ensure_ascii=False, indent=2) + "\n", out)


def _load_structure(path: str) -> AccessStructure:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return structure_from_dict(data)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting recurses
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    except StructureError as exc:
        raise InvalidStructureError(f"invalid access structure in {path}: {exc}") from exc


def _format_sets(minimal_sets: list[list[int]], purifier: int | None = None) -> str:
    return "; ".join(
        "(" + ",".join("p" if p == purifier else str(p) for p in players) + ")"
        for players in minimal_sets
    )


def _structure_text(structure: AccessStructure, purifier: int | None = None) -> str:
    return (
        f"players: {structure.n}\n"
        f"minimal sets: {_format_sets(structure.minimal_player_lists(), purifier)}\n"
    )


def _parse_players(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(",") if p)
    except ValueError as exc:
        raise UsageError(f"bad --players list {text!r}") from exc


def cmd_gen(args) -> int:
    if args.family != "csirmaz":
        raise UsageError(f"unknown family {args.family!r}; available: csirmaz")
    structure, params = csirmaz(args.n)
    data = structure_to_dict(structure)
    data["k"] = params.k
    if args.format == "text":
        _emit(_structure_text(structure) + f"k: {params.k}\n", args.out)
    else:
        _dump_json(data, args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        structure = _load_structure(args.infile)
    except InvalidStructureError as exc:
        _dump_json({"valid_antichain": False, "error": str(exc)}, args.out)
        return EXIT_FAIL
    report = {
        "n": structure.n,
        "minimal_sets": structure.minimal_player_lists(),
        "valid_antichain": True,
        "is_quantum": is_quantum(structure),
        "is_self_dual": is_self_dual(structure),
    }
    if args.format == "text":
        _emit(
            _structure_text(structure)
            + f"valid antichain: yes\n"
            + f"quantum: {'yes' if report['is_quantum'] else 'no'}\n"
            + f"self-dual: {'yes' if report['is_self_dual'] else 'no'}\n",
            args.out,
        )
    else:
        _dump_json(report, args.out)
    return EXIT_OK if report["is_quantum"] else EXIT_FAIL


def cmd_dual(args) -> int:
    structure = _load_structure(args.infile)
    result = dual(structure)
    if args.format == "text":
        _emit(_structure_text(result), args.out)
    else:
        _dump_json(structure_to_dict(result), args.out)
    return EXIT_OK


def cmd_purify(args) -> int:
    structure = _load_structure(args.infile)
    result = purify(structure)
    purifier = result.n if result.n > structure.n else None
    if args.format == "text":
        _emit(_structure_text(result, purifier), args.out)
    else:
        _dump_json(structure_to_dict(result), args.out)
    return EXIT_OK


def _validate_objective(spec: str) -> str:
    if spec in ("minmax", "minsum"):
        return spec
    if spec.startswith("single:") and spec[len("single:"):].isdigit():
        return spec
    raise UsageError(f"bad --objective {spec!r}; use minmax, minsum or single:<i>")


def _bound_options(args) -> dict:
    return {
        "auto_purify": args.auto_purify,
        "mode": args.mode,
        "ineq": args.ineq,
        "objective": _validate_objective(args.objective),
        "players": _parse_players(args.players),
        "max_elements": args.limit_elements,
        "force": args.force,
    }


def _bound_one(path: str, options: dict) -> dict:
    structure = _load_structure(path)
    report = share_bound(structure, **options)
    return report.to_json_dict()


def _bound_text(data: dict) -> str:
    purifier = data["structure"]["n"] if data["purified"] else None
    sets = _format_sets(data["structure"]["minimal_sets"], purifier)
    obj = data["objective"]
    if obj["kind"] == "single":
        obj_text = f"single share {obj['player']}"
    else:
        obj_text = f"{obj['kind']} over players " + ",".join(map(str, obj["players"]))
    lines = [
        f"structure: {sets}" + (" [purified]" if data["purified"] else ""),
        f"mode: {data['mode']}   inequalities: {data['ineq']}",
        f"objective: {obj_text}",
        f"largest share >= {data['lp_value']} * S(secret)",
        f"information rate <= {data['rate_upper_bound']}",
    ]
    if data["theorem3_bound"]:
        lines.append(f"closed-form reference (k={data['k']}): {data['theorem3_bound']}")
    s = data["stats"]
    lines.append(
        f"lp: {s['rows']} rows, {s['cols']} cols, {s['pivots']} pivots, {s['millis']} ms"
    )
    return "\n".join(lines) + "\n"


def cmd_bound(args) -> int:
    options = _bound_options(args)
    if args.batch:
        single = {"--in": args.infile, "--certificate": args.certificate,
                  "--dump-system": args.dump_system}
        given = [flag for flag, value in single.items() if value]
        if given:
            raise UsageError(f"bound --batch does not take {', '.join(given)}")
        return _cmd_bound_batch(args, options)
    if not args.infile:
        raise UsageError("bound needs --in FILE (or --batch DIR)")
    for path in (args.out, args.certificate, args.dump_system):
        _check_writable(path)
    data = _bound_one(args.infile, options)
    if args.certificate:
        _dump_json(data["certificate"], args.certificate)
    if args.dump_system:
        solved = structure_from_dict(data["structure"])
        system = cached_system(solved, args.mode == "pure", args.ineq)
        _emit(system.dump() + "\n", args.dump_system)
    if args.format == "text":
        _emit(_bound_text(data), args.out)
    else:
        _dump_json(data, args.out)
    return EXIT_OK


def _batch_worker(job: tuple[str, dict]) -> tuple[str, str, dict | str]:
    path, options = job
    try:
        return path, "ok", _bound_one(path, options)
    except (UsageError, StructureError, ProverError, SimplexError) as exc:
        return path, "error", str(exc)
    except CapacityError as exc:
        return path, "limit", str(exc)
    except Exception as exc:  # a bug on one input must not lose the other reports
        sys.stderr.write(f"{path}: {traceback.format_exc()}")
        return path, "error", f"{type(exc).__name__}: {exc}"


def _batch_results(jobs: list[tuple[str, dict]], workers: int):
    """Worker results in job order, each as soon as it and those before are done.

    A worker process that dies breaks the pool: every job it leaves
    unfinished becomes an ``error`` result, and finished ones are kept.
    """
    if workers == 1:
        yield from map(_batch_worker, jobs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_batch_worker, job) for job in jobs]
        for (path, _), future in zip(jobs, futures):
            try:
                yield future.result()
            except BrokenProcessPool:
                yield path, "error", "worker process died"


def _cmd_bound_batch(args, options: dict) -> int:
    directory = args.batch
    try:
        names = sorted(
            f for f in os.listdir(directory)
            if f.endswith(".json") and not f.endswith(".report.json")
        )
    except OSError as exc:
        raise UsageError(f"cannot list {directory}: {exc}") from exc
    if not names:
        raise UsageError(f"no .json inputs in {directory}")
    out_dir = args.out or directory
    if not os.path.isdir(out_dir):
        raise UsageError(f"cannot write reports to {out_dir}: not a directory")
    jobs = [(os.path.join(directory, name), options) for name in names]
    workers = max(1, min(args.workers, len(jobs)))
    summary = []
    for path, status, payload in _batch_results(jobs, workers):
        name = os.path.basename(path)
        entry = {"file": name, "status": status}
        if status == "ok":
            report_path = os.path.join(out_dir, name[: -len(".json")] + ".report.json")
            _dump_json(payload, report_path)
            entry["lp_value"] = payload["lp_value"]
            entry["report"] = os.path.basename(report_path)
        else:
            entry["error"] = payload
        summary.append(entry)
    _dump_json({"batch": summary}, None)
    return EXIT_OK if all(e["status"] == "ok" for e in summary) else EXIT_FAIL


def cmd_verify_cert(args) -> int:
    structure = _load_structure(args.system_from)
    try:
        with open(args.cert, encoding="utf-8") as fh:
            cert = certificate_from_json_dict(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read certificate {args.cert}: {exc}") from exc

    solved, _ = prepare_structure(
        structure,
        pure=args.mode == "pure",
        auto_purify=args.auto_purify,
        max_elements=args.limit_elements,
        force=args.force,
    )
    system = cached_system(solved, args.mode == "pure", args.ineq)
    players = _parse_players(args.players) or tuple(range(1, solved.n + 1))
    objective = Objective.parse(_validate_objective(args.objective), players)
    try:
        ok = verify_certificate(system, cert, objective=objective)
    except KeyError as exc:
        _dump_json({"verified": False, "error": str(exc)}, args.out)
        return EXIT_FAIL
    _dump_json(
        {"verified": bool(ok), "claimed_bound": rat_str(cert.claimed_bound)}, args.out
    )
    return EXIT_OK if ok else EXIT_FAIL


def cmd_lemmas(args) -> int:
    solved, _ = prepare_structure(
        _load_structure(args.infile),
        auto_purify=args.auto_purify,
        max_elements=args.limit_elements,
        force=args.force,
    )
    report = lemma_suite(
        solved,
        ineq=args.ineq,
        max_elements=args.limit_elements,
        force=args.force,
    )
    data = report.to_json_dict()
    if args.format == "text":
        failures = report.failures()
        _emit(
            f"instances: {len(report.outcomes)}\n"
            f"implied: {len(report.outcomes) - len(failures)}\n"
            f"failures: {', '.join(o.instance.id for o in failures) or 'none'}\n",
            args.out,
        )
    else:
        _dump_json(data, args.out)
    return EXIT_OK if report.all_implied else EXIT_FAIL


def cmd_chain(args) -> int:
    report = theorem3_chain(
        args.n,
        ineq=args.ineq,
        max_elements=args.limit_elements,
        force=args.force,
    )
    data = report.to_json_dict()
    if args.format == "text":
        lines = [f"k = {report.k}, closed-form bound {data['theorem3_bound']}"]
        for step in report.steps:
            mark = "ok " if step.implied else "FAIL"
            lines.append(f"  [{mark}] {step.instance.description}")
        lines.append(f"lp value: {data['lp_value']} (rate <= {data['rate_upper_bound']})")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _dump_json(data, args.out)
    return EXIT_OK if report.all_implied else EXIT_FAIL


def _add_common(
    parser: argparse.ArgumentParser,
    *,
    rows: bool = False,
    objective: bool = False,
    auto_purify: bool = False,
) -> None:
    """Add the shared flags a subcommand reads, and no others.

    ``rows`` adds ``--ineq``, ``--limit-elements`` and ``--force``;
    ``objective`` adds ``--mode``, ``--objective`` and ``--players``;
    ``auto_purify`` adds ``--auto-purify``.  Argparse then rejects any
    flag the subcommand would ignore.
    """
    parser.add_argument("--out", help="write the main JSON output to this path")
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    if objective:
        parser.add_argument("--mode", choices=("pure", "mixed"), default="pure")
        parser.add_argument(
            "--objective",
            default="minmax",
            help="minmax | minsum | single:<i>",
        )
        parser.add_argument("--players", help="comma-separated share indices")
    if auto_purify:
        parser.add_argument("--auto-purify", action="store_true", dest="auto_purify")
    if rows:
        parser.add_argument(
            "--ineq",
            choices=("full", "elemental"),
            default="full",
            help="row set that certificates are replayed on and witnesses "
            "checked against; every LP is solved on the elemental rows",
        )
        parser.add_argument(
            "--limit-elements",
            type=int,
            default=DEFAULT_ELEMENT_LIMIT,
            help="largest allowed ground-set size without --force",
        )
        parser.add_argument("--force", action="store_true", help="override the limit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qssbounds",
        description="Share-size bounds for quantum secret sharing access structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named access-structure family")
    p.add_argument("family", help="family name (csirmaz)")
    p.add_argument("--n", type=int, required=True, help="player count")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="validate a structure and report properties")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dual", help="dual access structure")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("purify", help="self-dualize by adding one party")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_purify)

    p = sub.add_parser("bound", help="prove a share-size lower bound")
    p.add_argument("--in", dest="infile")
    p.add_argument("--batch", help="directory of structure JSON files")
    p.add_argument("--workers", type=int, default=min(4, os.cpu_count() or 1))
    p.add_argument("--certificate", help="also write the certificate JSON here")
    p.add_argument(
        "--dump-system",
        dest="dump_system",
        help="debug: write the generated constraint system as text",
    )
    _add_common(p, rows=True, objective=True, auto_purify=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify-cert", help="replay a certificate against a fresh system")
    p.add_argument("--system-from", dest="system_from", required=True)
    p.add_argument("--cert", required=True)
    _add_common(p, rows=True, objective=True, auto_purify=True)
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("lemmas", help="check the scheme relations are all implied")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p, rows=True, auto_purify=True)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("chain", help="replay the staircase telescoping argument")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, rows=True)
    p.set_defaults(func=cmd_chain)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (StructureError, ProverError, SimplexError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
