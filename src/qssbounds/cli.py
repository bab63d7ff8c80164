"""Command-line front end.

Subcommands generate, inspect and transform access structures, compute
share-size bounds with certificates, replay certificates, and run the
lemma and chain regression suites.  Every command prints deterministic
JSON (stable key order, rationals as "p/q" strings, no floats) or, under
``--format text``, a human-readable rendering that prints sets as (1,2)
tuples and the purifying party as ``p``; ``bound --batch`` prints JSON only.
``bound`` and ``verify-cert`` read their shared flags into `share_bound`'s
keywords, and refuse a bad one before any file is read.  Every command
refuses an ``--out`` it cannot write before it does any work, and a
``bound`` whose output fails to write removes the files it created.

Exit codes: 0 success / implied / verified; 1 a checked property fails
or a certificate is rejected; 2 usage error or malformed input; 3
capacity or element limit exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import traceback
from functools import cache

from .simplex import SimplexError
from .prover import (
    DEFAULT_ELEMENT_LIMIT,
    Objective,
    ObjectivePlayerError,
    ProverError,
    bound_setup,
    cached_system,
    certificate_from_json_dict,
    lemma_suite,
    rat_str,
    share_bound,
    theorem3_chain,
    verify_certificate,
)
from .structures import (
    CAPACITY,
    AccessStructure,
    CapacityError,
    StructureError,
    csirmaz,
    dual,
    is_quantum,
    purify,
    structure_from_dict,
    structure_to_dict,
    unauthorized_transversals,
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


def _json_text(data: dict) -> str:
    return json.dumps(data, ensure_ascii=False, indent=2) + "\n"


def _rendered(args, data: dict, text: str) -> str:
    """``data`` as JSON, or ``text`` under ``--format text``."""
    return text if args.format == "text" else _json_text(data)


def _output(args, data: dict, text: str) -> None:
    """Write `_rendered` output to ``--out`` or stdout."""
    _emit(_rendered(args, data, text), args.out)


def _emit_all(writes: list[tuple[str | None, str]]) -> None:
    """Write each ``(path, text)``, the files in order and stdout (path None) last.

    If a write fails, every file these writes created is removed before
    the error is raised; a path that held a file before is never removed.
    """
    existed = {path for path, _ in writes if path and os.path.lexists(path)}
    written = []
    try:
        for path, text in sorted(writes, key=lambda w: w[0] is None):
            written.append(path)
            _emit(text, path)
    except UsageError:
        for path in written:
            if path and path not in existed and os.path.lexists(path):
                with contextlib.suppress(OSError):
                    os.remove(path)
        raise


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
    tokens = [p for p in text.replace(" ", "").split(",") if p]
    # int() also reads non-ASCII digits such as "\u0661"
    if not all(p.isascii() and p.isdigit() for p in tokens):
        raise UsageError(f"bad --players list {text!r}")
    try:
        # the player rules of every objective
        return Objective("minsum", tuple(int(p) for p in tokens)).players
    except StructureError as exc:
        raise UsageError(f"bad --players list {text!r}: {exc}") from exc


@contextlib.contextmanager
def _players_of_the_structure(args):
    """Refuse an objective player above the structure's as a bad ``--players``."""
    try:
        yield
    except ObjectivePlayerError as exc:
        raise UsageError(f"bad --players list {args.players!r}: {exc}") from exc


def _check_staircase_n(n: int) -> None:
    """Refuse a staircase player count below 4 before any work."""
    if n < 4:
        raise UsageError(f"--n {n}: the staircase family needs at least 4 players")


def cmd_gen(args) -> int:
    if args.family != "csirmaz":
        raise UsageError(f"unknown family {args.family!r}; available: csirmaz")
    _check_staircase_n(args.n)
    structure, params = csirmaz(args.n)
    data = {**structure_to_dict(structure), "k": params.k}
    _output(args, data, _structure_text(structure) + f"k: {params.k}\n")
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        structure = _load_structure(args.infile)
    except InvalidStructureError as exc:
        _output(args, {"valid_antichain": False, "error": str(exc)},
                f"valid antichain: no\nerror: {exc}\n")
        return EXIT_FAIL
    quantum = is_quantum(structure)
    self_dual = quantum and not unauthorized_transversals(structure)
    report = {
        "n": structure.n,
        "minimal_sets": structure.minimal_player_lists(),
        "valid_antichain": True,
        "is_quantum": quantum,
        "is_self_dual": self_dual,
    }
    _output(args, report, _structure_text(structure) + (
        f"valid antichain: yes\nquantum: {'yes' if quantum else 'no'}\n"
        f"self-dual: {'yes' if self_dual else 'no'}\n"))
    return EXIT_OK if quantum else EXIT_FAIL


def cmd_dual(args) -> int:
    structure = _load_structure(args.infile)
    result = dual(structure)
    _output(args, structure_to_dict(result), _structure_text(result))
    return EXIT_OK


def cmd_purify(args) -> int:
    structure = _load_structure(args.infile)
    result = purify(structure)
    purifier = result.n if result.n > structure.n else None
    _output(args, structure_to_dict(result), _structure_text(result, purifier))
    return EXIT_OK


def _bound_options(args) -> dict:
    """`share_bound`'s keywords from the flags of `bound` and `verify-cert`.

    A bad ``--objective`` or ``--players``, and ``--auto-purify`` in mixed
    mode, which never purifies, are refused before any file is read; a
    player above the structure's is refused once it is read.
    """
    # one player stands in for the structure's, which is read later
    try:
        Objective.parse(args.objective, None, 1)
    except StructureError as exc:
        raise UsageError(f"bad --objective {args.objective!r}; use minmax or minsum") from exc
    if args.auto_purify and args.mode == "mixed":
        raise UsageError("--auto-purify applies to pure mode only; mixed mode never purifies")
    return {
        "auto_purify": args.auto_purify,
        "mode": args.mode,
        "ineq": args.ineq,
        "objective": args.objective,
        "players": _parse_players(args.players),
        "max_elements": args.limit_elements,
    }


def _bound_text(data: dict, objective: Objective) -> str:
    purifier = data["structure"]["n"] if data["purified"] else None
    sets = _format_sets(data["structure"]["minimal_sets"], purifier)
    lines = [
        f"structure: {sets}" + (" [purified]" if data["purified"] else ""),
        f"mode: {data['mode']}   inequalities: {data['ineq']}",
        f"objective: {objective.describe()}",
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
                  "--dump-system": args.dump_system, "--format text": args.format == "text"}
        given = [flag for flag, value in single.items() if value]
        if given:
            raise UsageError(f"bound --batch does not take {', '.join(given)}")
        return _cmd_bound_batch(args, options)
    if not args.infile:
        raise UsageError("bound needs --in FILE (or --batch DIR)")
    if args.workers is not None:
        raise UsageError("bound --workers needs --batch DIR")
    for path in (args.certificate, args.dump_system):
        _check_writable(path)
    structure = _load_structure(args.infile)
    with _players_of_the_structure(args):
        report = share_bound(structure, **options)
    data = report.to_json_dict()
    writes = [(args.out, _rendered(args, data, _bound_text(data, report.objective)))]
    if args.certificate:
        writes.append((args.certificate, _json_text(data["certificate"])))
    if args.dump_system:
        system = cached_system(report.structure, report.mode == "pure", report.ineq)
        writes.append((args.dump_system, system.dump() + "\n"))
    _emit_all(writes)
    return EXIT_OK


def _batch_worker(job: tuple[str, dict]) -> tuple[str, str, dict | str]:
    path, options = job
    try:
        return path, "ok", share_bound(_load_structure(path), **options).to_json_dict()
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
    # imported here: only a pool needs it, and it is a fifth of the import time
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_batch_worker, job) for job in jobs]
        for (path, _), future in zip(jobs, futures):
            try:
                yield future.result()
            except BrokenProcessPool:
                yield path, "error", "worker process died"


def _cmd_bound_batch(args, options: dict) -> int:
    if args.workers is not None and args.workers < 1:
        raise UsageError(f"bound --workers needs at least 1 worker, not {args.workers}")
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
    workers = min(4, os.cpu_count() or 1) if args.workers is None else args.workers
    workers = min(workers, len(jobs))
    summary = []
    for path, status, payload in _batch_results(jobs, workers):
        name = os.path.basename(path)
        entry = {"file": name, "status": status}
        if status == "ok":
            report_path = os.path.join(out_dir, name[: -len(".json")] + ".report.json")
            _emit(_json_text(payload), report_path)
            entry["lp_value"] = payload["lp_value"]
            entry["report"] = os.path.basename(report_path)
        else:
            entry["error"] = payload
        summary.append(entry)
    _emit(_json_text({"batch": summary}), None)
    return EXIT_OK if all(e["status"] == "ok" for e in summary) else EXIT_FAIL


def cmd_verify_cert(args) -> int:
    options = _bound_options(args)
    structure = _load_structure(args.system_from)
    try:
        with open(args.cert, encoding="utf-8") as fh:
            cert = certificate_from_json_dict(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read certificate {args.cert}: {exc}") from exc
    _, _, system, objective = bound_setup(structure, **options)
    try:
        with _players_of_the_structure(args):
            ok = verify_certificate(system, cert, objective=objective)
        key, value = "claimed_bound", rat_str(cert.claimed_bound)
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        ok, key, value = False, "error", exc.args[0]
    _output(args, {"verified": ok, key: value},
            f"verified: {'yes' if ok else 'no'}\n{key.replace('_', ' ')}: {value}\n")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_lemmas(args) -> int:
    report = lemma_suite(
        _load_structure(args.infile),
        auto_purify=args.auto_purify,
        ineq=args.ineq,
        max_elements=args.limit_elements,
    )
    failures = report.failures()
    _output(
        args,
        report.to_json_dict(),
        f"instances: {len(report.outcomes)}\n"
        f"implied: {len(report.outcomes) - len(failures)}\n"
        f"failures: {', '.join(o.instance.id for o in failures) or 'none'}\n",
    )
    return EXIT_OK if report.all_implied else EXIT_FAIL


def cmd_chain(args) -> int:
    _check_staircase_n(args.n)
    report = theorem3_chain(args.n, ineq=args.ineq, max_elements=args.limit_elements)
    data = report.to_json_dict()
    lines = [f"k = {report.k}, closed-form bound {data['theorem3_bound']}"]
    for step in report.steps:
        mark = "ok " if step.implied else "FAIL"
        lines.append(f"  [{mark}] {step.instance.description}")
    lines.append(f"lp value: {data['lp_value']} (rate <= {data['rate_upper_bound']})")
    _output(args, data, "\n".join(lines) + "\n")
    return EXIT_OK if report.all_implied else EXIT_FAIL


def _add_common(
    parser: argparse.ArgumentParser,
    *,
    rows: bool = False,
    objective: bool = False,
    auto_purify: bool = False,
) -> None:
    """Add the shared flags a subcommand reads, and no others.

    ``rows`` adds ``--ineq`` and ``--limit-elements``;
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
            help="minmax | minsum; minsum with --players i bounds share i alone",
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
            choices=range(2, CAPACITY + 1),
            default=DEFAULT_ELEMENT_LIMIT,
            metavar="N",
            help="largest allowed ground-set size (players plus reference), "
            f"2 to {CAPACITY}; {CAPACITY} admits every structure",
        )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls.

    Parsing leaves the parser unchanged, since each ``parse_args`` fills a
    new namespace, so one parser serves every `main` call in a process.
    """
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
    p.add_argument("--workers", type=int, help="--batch worker processes (default: up to 4)")
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
        if not getattr(args, "batch", None):  # a batch's --out is a directory
            _check_writable(args.out)
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
