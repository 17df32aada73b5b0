"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 validation or input-format failure,
3 size-guard refusal (override with --force).  Results print as a short
human summary by default; --json and --csv emit the same RunResult record,
byte-identical across reruns except for the timing field.
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
from dataclasses import dataclass

from .core import (
    AcyclicityError,
    ExplicitComplex,
    FormatError,
    IntegrityError,
    NonMemberCellError,
    SizeGuardError,
    validate_complex,
)
from .cubical import CubicalComplex, parse_top_cell_file
from .matching import (
    FLOW_CHECK_LIMIT,
    TemplateMatching,
    _refuse_above,
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

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "cell_count": self.cell_count,
            "timing_ms": self.timing_ms,
            "betti": self.betti,
            "rounds": self.rounds,
            "conley": self.conley,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        data = self.to_dict()
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
    ps.set_defaults(func=cmd_sphere)

    pc = sub.add_parser("cubical", help="homology of a top-cube list file")
    pc.add_argument("file")
    _output_flags(pc)
    pc.set_defaults(func=cmd_cubical)

    pb = sub.add_parser("braid", help="connection matrix of a braid diagram")
    src = pb.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="strand-list file")
    src.add_argument("--nfold", type=int, help="n-fold cover of the reference diagram")
    src.add_argument("--torus", type=int, help="cascading diagram on this many strands")
    pb.add_argument("--dot", help="write the condensation poset as DOT to this path")
    pb.add_argument("--matrix", help="write the graded boundary as JSON to this path")
    _output_flags(pb)
    pb.set_defaults(func=cmd_braid)

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


def _guard(estimate: int, force: bool, what: str) -> None:
    if estimate > CELL_GUARD and not force:
        raise SizeGuardError(
            f"{what} would hold about {estimate} cells "
            f"(guard {CELL_GUARD}); pass --force to run anyway"
        )


def _emit(args, result: RunResult, human: str) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(result.to_json())
    elif getattr(args, "csv", False):
        sys.stdout.write(result.to_csv())
    else:
        print(human)


# -- sphere / cubical ---------------------------------------------------


def _sphere_runner(args):
    if args.dim < 1:
        raise CliUsageError("--dim must be >= 1")
    per_axis = 3 if args.kind == "s" else 7
    _guard(per_axis ** (args.dim + 1), args.force, "this sphere complex")

    def run() -> RunResult:
        cx = (
            CubicalComplex.sphere(args.dim)
            if args.kind == "s"
            else CubicalComplex.top_sphere(args.dim)
        )
        t0 = time.perf_counter()
        res = homology(cx)
        ms = (time.perf_counter() - t0) * 1000.0
        return RunResult(
            command={"cmd": "sphere", "kind": args.kind, "dim": args.dim},
            cell_count=cx.cell_count,
            timing_ms=round(ms, 3),
            betti=res.betti,
            rounds=res.rounds,
        )

    return run


def cmd_sphere(args) -> int:
    result = _sphere_runner(args)()
    _emit(
        args,
        result,
        f"sphere kind={args.kind} dim={args.dim}: {result.cell_count} cells, "
        f"betti {result.betti}, {result.rounds} round(s), {result.timing_ms} ms",
    )
    return EXIT_OK


def _cubical_runner(args):
    with open(args.file) as fh:
        m, d, anchors = parse_top_cell_file(fh.read())

    def run() -> RunResult:
        cx = CubicalComplex.from_top_cells(m, d, anchors, force=args.force)
        t0 = time.perf_counter()
        res = homology(cx)
        ms = (time.perf_counter() - t0) * 1000.0
        return RunResult(
            command={"cmd": "cubical", "file": os.path.basename(args.file)},
            cell_count=cx.cell_count,
            timing_ms=round(ms, 3),
            betti=res.betti,
            rounds=res.rounds,
        )

    return run


def cmd_cubical(args) -> int:
    result = _cubical_runner(args)()
    _emit(
        args,
        result,
        f"cubical {args.file}: {result.cell_count} cells, betti {result.betti}, "
        f"{result.rounds} round(s), {result.timing_ms} ms",
    )
    return EXIT_OK


# -- braid ---------------------------------------------------------------


def _braid_skeleton(args):
    if args.file is not None:
        with open(args.file) as fh:
            rows = parse_braid_file(fh.read())
        return validate_skeleton(rows), {"cmd": "braid", "file": os.path.basename(args.file)}
    if args.nfold is not None:
        if args.nfold < 1:
            raise CliUsageError("--nfold must be >= 1")
        return nfold_cover(reference_braid(), args.nfold), {
            "cmd": "braid",
            "nfold": args.nfold,
        }
    if args.torus < 3:
        raise CliUsageError("--torus must be >= 3")
    return torus_knot(args.torus), {"cmd": "braid", "torus": args.torus}


def _braid_runner(args):
    sk, command = _braid_skeleton(args)
    _guard((2 * sk.m - 1) ** sk.d, args.force, "this braid complex")

    def run() -> tuple[RunResult, "ExplicitComplex", object]:
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
        result = RunResult(
            command=command,
            cell_count=bc.cx.cell_count,
            timing_ms=round(ms, 3),
            conley=conley,
        )
        return result, res.complex, bc.poset

    return run


def cmd_braid(args) -> int:
    result, final, poset = _braid_runner(args)()
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(condensation_dot(poset))
    if args.matrix:
        present = sorted(set(final.grades.values()))  # type: ignore[union-attr]
        payload = final.to_json_dict(poset_pairs=poset.relation_pairs(present))
        with open(args.matrix, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    c = result.conley or {}
    label = " ".join(f"{k}={v}" for k, v in result.command.items() if k != "cmd")
    _emit(
        args,
        result,
        f"braid {label}: {result.cell_count} cells, "
        f"{c.get('scc_count')} classes, first round {c.get('first_round_cells')} cells, "
        f"connection matrix {c.get('conley_cells')} cells, tower {c.get('tower_height')}, "
        f"{result.timing_ms} ms",
    )
    return EXIT_OK


# -- verify ---------------------------------------------------------------


def _gen_complex(spec: str) -> CubicalComplex:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "sphere":
            return CubicalComplex.sphere(int(rest))
        if kind == "stop":
            return CubicalComplex.top_sphere(int(rest))
        if kind == "full":
            m_s, d_s = rest.split(",")
            return CubicalComplex.full(int(m_s), int(d_s))
    except (ValueError, TypeError) as exc:
        raise CliUsageError(f"bad --gen spec {spec!r}: {exc}") from exc
    raise CliUsageError(f"unknown --gen kind {kind!r} (use sphere:, stop:, full:)")


def cmd_verify(args) -> int:
    if (args.file is None) == (args.gen is None):
        raise CliUsageError("verify needs exactly one of FILE or --gen")
    if args.gen is not None:
        cx = _gen_complex(args.gen)
    else:
        with open(args.file) as fh:
            m, d, anchors = parse_top_cell_file(fh.read())
        cx = CubicalComplex.from_top_cells(m, d, anchors, force=args.force)
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
    if sub.cmd == "sphere":
        runner = _sphere_runner(sub)
    elif sub.cmd == "cubical":
        runner = _cubical_runner(sub)
    elif sub.cmd == "braid":
        base = _braid_runner(sub)
        runner = lambda: base()[0]  # noqa: E731 - drop artifacts, keep timing
    else:
        raise CliUsageError(f"cannot bench {sub.cmd!r}")
    times = []
    for _ in range(args.repeat):
        times.append(runner().timing_ms)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (FormatError, SkeletonError, NonMemberCellError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IntegrityError, AcyclicityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
