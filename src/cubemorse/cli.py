"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 validation or input-format failure,
3 size-guard refusal (override with --force).  Results print as a short
human summary by default; --json and --csv emit the same RunResult record,
byte-identical across reruns except for the timing field.

``sphere``, ``cubical`` and ``braid`` check their arguments, read their
input and run the size guard before they build anything large.  ``bench``
repeats one of them and prints its timings alone, so the command after it
takes none of --json, --csv, --dot and --matrix.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass

from .core import (
    VALIDATE_LIMIT,
    AcyclicityError,
    FormatError,
    IntegrityError,
    NonMemberCellError,
    SizeGuardError,
    _guard_size,
    _refuse_above,
    validate_complex,
)
from .cubical import CubicalComplex, parse_top_cell_file
from .matching import (
    FLOW_CHECK_LIMIT,
    TemplateMatching,
    verify_acyclic,
    verify_matching,
    verify_stable,
)
from .morse import connection_matrix, homology
from .braid import (
    SkeletonError,
    build_braid_complex,
    condensation_dot,
    nfold_cover,
    parse_braid_file,
    reference_braid,
    torus_knot,
    validate_skeleton,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_GUARD = 3

CELL_GUARD = 10**9


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise CliUsageError(message)


@dataclass
class RunResult:
    command: dict
    cell_count: int
    timing_ms: float
    betti: list[int] | None = None
    rounds: int | None = None
    conley: dict | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        data = asdict(self)
        keys = sorted(data)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(keys)
        writer.writerow([json.dumps(data[k], sort_keys=True) for k in keys])
        return buf.getvalue()

    @staticmethod
    def parse_csv(text: str) -> dict:
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) != 2:
            raise FormatError("expected a header row and one value row")
        return {k: json.loads(v) for k, v in zip(rows[0], rows[1])}


def build_parser() -> _Parser:
    p = _Parser(prog="cubemorse", description=__doc__)
    p.add_argument(
        "--force",
        action="store_true",
        help="override the size guard on very large complexes",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("sphere", help="homology of a built-in sphere family")
    ps.add_argument("--kind", choices=("s", "stop"), required=True,
                    help="s: boundary sphere; stop: thickened sphere")
    ps.add_argument("--dim", type=int, required=True)
    _output_flags(ps)
    ps.set_defaults(func=cmd_run, runner=_sphere_runner)

    pc = sub.add_parser("cubical", help="homology of a top-cube list file")
    pc.add_argument("file")
    _output_flags(pc)
    pc.set_defaults(func=cmd_run, runner=_cubical_runner)

    pb = sub.add_parser("braid", help="connection matrix of a braid diagram")
    src = pb.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="strand-list file")
    src.add_argument("--nfold", type=int, help="n-fold cover of the reference diagram")
    src.add_argument("--torus", type=int, help="cascading diagram on this many strands")
    pb.add_argument("--dot", help="write the condensation poset as DOT to this path")
    pb.add_argument("--matrix", help="write the graded boundary as JSON to this path")
    _output_flags(pb)
    pb.set_defaults(func=cmd_run, runner=_braid_runner)

    pv = sub.add_parser("verify", help="validate a complex and its template matching")
    pv.add_argument("file", nargs="?", help="top-cube list file")
    pv.add_argument("--gen", help="built-in input, e.g. sphere:3, stop:2, full:2,2")
    pv.add_argument("--acyclic", action="store_true", help="also check flow acyclicity")
    pv.add_argument("--stable", action="store_true", help="also check pair stability")
    pv.set_defaults(func=cmd_verify)

    pn = sub.add_parser("bench", help="repeat another command's computation and time it")
    pn.add_argument("--repeat", type=int, default=5)
    pn.add_argument("--json", action="store_true")
    pn.add_argument("rest", nargs=argparse.REMAINDER,
                    help="command to benchmark, e.g. sphere --kind s --dim 5")
    pn.set_defaults(func=cmd_bench)
    return p


def _output_flags(sp: argparse.ArgumentParser) -> None:
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--json", action="store_true", help="print the RunResult as JSON")
    grp.add_argument("--csv", action="store_true", help="print the RunResult as CSV")


# -- runners ----------------------------------------------------------------
# A runner does a command's set-up and returns the function that does its
# timed work and returns (RunResult, artifacts): cmd_run calls that function
# once, bench calls it --repeat times.


def _homology(command: dict, build):
    """The timed work of ``sphere`` and ``cubical``: build the complex, then
    time :func:`homology` alone."""

    def run() -> tuple[RunResult, None]:
        cx = build()
        t0 = time.perf_counter()
        res = homology(cx)
        ms = (time.perf_counter() - t0) * 1000.0
        return RunResult(command, cx.cell_count, round(ms, 3), res.betti, res.rounds), None

    return run


def _sphere_runner(args):
    if args.dim < 1:
        raise CliUsageError("--dim must be >= 1")
    per_axis = 3 if args.kind == "s" else 7
    _guard_size("this sphere complex", 1, per_axis, args.dim + 1, CELL_GUARD, args.force)
    build = CubicalComplex.sphere if args.kind == "s" else CubicalComplex.top_sphere
    command = {"cmd": "sphere", "kind": args.kind, "dim": args.dim}
    return _homology(command, lambda: build(args.dim))


def _top_cells(args):
    """Read ``args.file``; return the builder of its closure."""
    with open(args.file) as fh:
        m, d, anchors = parse_top_cell_file(fh.read())
    return lambda: CubicalComplex.from_top_cells(m, d, anchors, force=args.force)


def _cubical_runner(args):
    command = {"cmd": "cubical", "file": os.path.basename(args.file)}
    return _homology(command, _top_cells(args))


def _braid_runner(args):
    """The guard needs only m strands and period d: (2m - 1)^d cells.  It
    runs before the skeleton is built or validated."""
    if args.file is not None:
        with open(args.file) as fh:
            rows = parse_braid_file(fh.read())
        m, d, make = len(rows), len(rows[0]) - 1, lambda: validate_skeleton(rows)
        command = {"cmd": "braid", "file": os.path.basename(args.file)}
    elif args.nfold is not None:
        if args.nfold < 1:
            raise CliUsageError("--nfold must be >= 1")
        ref = reference_braid()
        m, d, make = ref.m, args.nfold * ref.d, lambda: nfold_cover(ref, args.nfold)
        command = {"cmd": "braid", "nfold": args.nfold}
    else:
        if args.torus < 3:
            raise CliUsageError("--torus must be >= 3")
        m, d, make = args.torus, 4, lambda: torus_knot(args.torus)
        command = {"cmd": "braid", "torus": args.torus}
    _guard_size("this braid complex", 1, 2 * m - 1, d, CELL_GUARD, args.force)
    sk = make()

    def run() -> tuple[RunResult, tuple]:
        t0 = time.perf_counter()
        bc = build_braid_complex(sk)
        res = connection_matrix(
            bc.cx, bc.grades, bc.poset, input_counts=bc.input_counts()
        )
        ms = (time.perf_counter() - t0) * 1000.0
        conley = {
            "tower_height": res.tower,
            "scc_count": res.scc_count,
            "first_round_cells": res.round_sizes[0],
            "conley_cells": res.complex.cell_count,
            "cells": [
                [int(g), int(dm), int(n)]
                for (g, dm), n in sorted(res.counts.items())
            ],
            "boundary": [
                [f, c, 1] for f, c in res.complex.boundary_entries()
            ],
        }
        result = RunResult(command, bc.cx.cell_count, round(ms, 3), conley=conley)
        return result, (res.complex, bc.poset)

    return run


def cmd_run(args) -> int:
    r, artifacts = args.runner(args)()
    final, poset = artifacts or (None, None)
    if getattr(args, "dot", None):
        with open(args.dot, "w") as fh:
            fh.write(condensation_dot(poset))
    if getattr(args, "matrix", None):
        present = sorted(set(final.grades.values()))
        payload = final.to_json_dict(poset_pairs=poset.relation_pairs(present))
        with open(args.matrix, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.json or args.csv:
        sys.stdout.write(r.to_json() if args.json else r.to_csv())
        return EXIT_OK
    label = args.file if args.cmd == "cubical" else " ".join(
        f"{k}={v}" for k, v in r.command.items() if k != "cmd"
    )
    if r.conley is None:
        body = f"betti {r.betti}, {r.rounds} round(s)"
    else:
        c = r.conley
        body = (
            f"{c['scc_count']} classes, first round {c['first_round_cells']} cells, "
            f"connection matrix {c['conley_cells']} cells, tower {c['tower_height']}"
        )
    print(f"{args.cmd} {label}: {r.cell_count} cells, {body}, {r.timing_ms} ms")
    return EXIT_OK


# -- verify ---------------------------------------------------------------


def _gen_complex(spec: str) -> CubicalComplex:
    """The ``--gen`` complex, refused before it is built when it would hold
    more cells than :func:`validate_complex` checks, --force or not."""
    kind, _, rest = spec.partition(":")
    try:
        if kind in ("sphere", "stop"):
            d = int(rest)
            _guard_size("this complex", 1, 3 if kind == "sphere" else 7, d + 1, VALIDATE_LIMIT, None)
            return (CubicalComplex.sphere if kind == "sphere" else CubicalComplex.top_sphere)(d)
        if kind == "full":
            m, d = map(int, rest.split(","))
            if m < 1:  # before the guard takes log2(2m + 1)
                raise ValueError("need m >= 1")
            _guard_size("this complex", 1, 2 * m + 1, d, VALIDATE_LIMIT, None)
            return CubicalComplex.full(m, d)
    except (ValueError, TypeError) as exc:
        raise CliUsageError(f"bad --gen spec {spec!r}: {exc}") from exc
    raise CliUsageError(f"unknown --gen kind {kind!r} (use sphere:, stop:, full:)")


def cmd_verify(args) -> int:
    if (args.file is None) == (args.gen is None):
        raise CliUsageError("verify needs exactly one of FILE or --gen")
    cx = _gen_complex(args.gen) if args.gen is not None else _top_cells(args)()
    # refuse an oversized flow check before the first pass prints
    if args.acyclic:
        _refuse_above("verify_acyclic", cx, FLOW_CHECK_LIMIT)
    if args.stable:
        _refuse_above("verify_stable", cx, FLOW_CHECK_LIMIT)
    failed = False
    report = validate_complex(cx)
    print(f"complex: {report.summary()}")
    failed |= not report.ok
    matching = TemplateMatching(cx)
    mrep = verify_matching(cx, matching)
    print(f"matching: {mrep.summary()}")
    failed |= not mrep.ok
    if args.acyclic:
        ok = verify_acyclic(cx, matching)
        print(f"acyclic: {'ok' if ok else 'cycle found'}")
        failed |= not ok
    if args.stable:
        ok = verify_stable(cx, matching, matching.entries(), matching.provenance)
        print(f"stable: {'ok' if ok else 'unstable pair found'}")
        failed |= not ok
    return EXIT_VALIDATION if failed else EXIT_OK


# -- bench ----------------------------------------------------------------


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise CliUsageError("--repeat must be >= 1")
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise CliUsageError("bench needs a command to run, e.g. bench sphere --kind s --dim 5")
    sub = build_parser().parse_args(rest)
    if not hasattr(sub, "runner"):
        raise CliUsageError(f"cannot bench {sub.cmd!r}")
    for flag in ("json", "csv", "dot", "matrix"):
        if getattr(sub, flag, None):
            raise CliUsageError(f"bench takes no --{flag} after the command it times")
    run = sub.runner(sub)
    times = [run()[0].timing_ms for _ in range(args.repeat)]
    mean = statistics.fmean(times)
    std = statistics.stdev(times) if len(times) > 1 else 0.0
    if args.json:
        print(json.dumps(
            {"command": rest, "repeat": args.repeat, "mean_ms": round(mean, 3),
             "std_ms": round(std, 3), "runs_ms": times},
            sort_keys=True,
        ))
    else:
        print(f"bench {' '.join(rest)}: mean {mean:.3f} ms, std {std:.3f} ms over {args.repeat} run(s)")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and friends
        return EXIT_OK if not exc.code else EXIT_USAGE
    except (CliUsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (
        FormatError, SkeletonError, NonMemberCellError, UnicodeDecodeError,
        IntegrityError, AcyclicityError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
