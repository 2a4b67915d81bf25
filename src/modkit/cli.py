"""Command-line front end.

Four subcommands: ``solve`` (full relaxation + adaptive rounding), ``cut``
(bipartition relaxation + single-hyperplane rounding), ``exact``
(brute-force oracle), and ``bounds`` (guarantee-curve CSV samples).
Reports are deterministic: identical configuration (seed included) yields
byte-identical output files. Floats are serialized with 17 significant
digits so that determinism is byte-testable.

Exit codes: 0 success, 2 validation, usage, I/O or out-of-memory error (no
report file is written then), 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import secrets
import stat
import sys

import numpy as np

from . import bounds
from .exact import CUT_LIMIT, FULL_LIMIT, _check_size, exact_cut, exact_full
from .graph import VARIANTS, GraphFormatError, _checked_int, parse_edge_list
from .modularity import build_q
from .rounding import _checked_seed, round_cut, round_full
from .sdp import SolverOptions, solve_cut_sdp, solve_full_sdp

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(value) -> str:
    """Serialize to JSON text with floats at 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        inner = ", ".join(f"{_fmt(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_report(report: dict) -> str:
    lines = ["{"]
    body = []
    for key, value in report.items():
        body.append(f"  {_fmt(str(key))}: {_fmt(value)}")
    lines.append(",\n".join(body))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _replaces(fh) -> bool:
    """Whether a write empties ``fh`` first: only a regular file that is not
    our own stdout or stderr (``--output /dev/stdout >> log`` appends)."""
    st = os.fstat(fh.fileno())
    for fd in (1, 2):
        with contextlib.suppress(OSError):  # the stream is closed
            if os.path.samestat(st, os.fstat(fd)):
                return False
    return stat.S_ISREG(st.st_mode)


@contextlib.contextmanager
def _open_output(path: str | None):
    """Yield the write function of a report or iterate log: to stdout for no
    path or "-", else to the file at ``path``, opened (and so checked) on
    entry but emptied only by the write, and only when ``_replaces`` says
    so. Each write is flushed, so writes reach a shared stream in the order
    they are made. If the block fails, a file it created is removed."""
    to_stdout = path is None or path == "-"
    created = not to_stdout and not os.path.exists(path)
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(path, "a") as fh:
        replace = not to_stdout and _replaces(fh)
        def write(text: str) -> None:
            if replace:
                fh.truncate(0)
            fh.write(text)
            fh.flush()
        try:
            yield write
        except BaseException:
            if created:
                os.remove(path)
            raise


def _load_graph(args):
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {args.input}: {exc}") from exc
    return parse_edge_list(text, args.variant)


def _resolve_seed(args) -> int:
    return secrets.randbits(64) if args.entropy else _checked_seed(args.seed)


def _config_echo(args, seed: int) -> dict:
    return {
        "command": args.command,
        "input": args.input,
        "variant": args.variant,
        "trials": args.trials,
        "seed": seed,
        "tol_obj": args.tol_obj,
        "max_iters": args.max_iters,
        "format": "json",
    }


def _iterate_csv(history: np.ndarray) -> str:
    rows = [f"{it},{obj:.17g},{r:.17g},{s:.17g}\n"
            for it, (obj, r, s) in enumerate(history.tolist(), 1)]
    return "iteration,objective,primal_residual,dual_residual\n" + "".join(rows)


def _run_rounding_command(args) -> int:
    graph = _load_graph(args)
    qm = build_q(graph)
    opts = SolverOptions(tol_obj=args.tol_obj, max_iters=args.max_iters)
    # the seed and trial count are checked here as well as by the rounding,
    # so that they, or an output or log path, fail before the solve instead
    # of after it
    seed = _resolve_seed(args)
    _checked_int("trials", args.trials, 1)
    files = [path for path in (args.output, args.iterate_log) if path not in (None, "-")]
    if len(files) == 2 and os.path.realpath(files[0]) == os.path.realpath(files[1]):
        raise ValueError("--output and --iterate-log must name different files")
    log = _open_output(args.iterate_log) if args.iterate_log else contextlib.nullcontext()
    with _open_output(args.output) as write, log as write_log:
        if args.command == "solve":
            sol = solve_full_sdp(qm, opts)
            best, report = round_full(qm, sol, trials=args.trials, seed=seed)
        else:
            sol = solve_cut_sdp(qm, opts)
            best, report = round_cut(qm, sol, trials=args.trials, seed=seed)

        payload = {
            "config": _config_echo(args, seed),
            "graph": {"n": graph.n, "m": graph.m, "variant": graph.variant,
                      "scale": qm.scale},
            "solver": {
                "kind": sol.kind,
                "iterations": sol.iterations,
                "primal_residual": sol.primal_residual,
                "dual_residual": sol.dual_residual,
                "converged": sol.converged,
            },
            "report": dataclasses.asdict(report),
            "partition": {
                "k": best.partition.k,
                "assign": list(best.partition.assign),
            },
        }
        if write_log:
            write_log(_iterate_csv(sol.history))
        write(dumps_report(payload))
    return EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE


def _run_exact(args) -> int:
    graph = _load_graph(args)
    cut = args.problem == "cut"
    limit = (CUT_LIMIT if cut else FULL_LIMIT) if args.limit is None else args.limit
    # an oversized graph fails here, before its n x n matrix is built
    _check_size(graph.n, limit, cut)
    result = (exact_cut if cut else exact_full)(build_q(graph), limit=limit)
    payload = {
        "config": {
            "command": "exact",
            "input": args.input,
            "variant": args.variant,
            "problem": args.problem,
            "format": "json",
        },
        "opt": result.opt_value,
        "partition": list(result.opt_partition.assign),
        "enumerated": result.enumerated,
    }
    with _open_output(args.output) as write:
        write(dumps_report(payload))
    return EXIT_OK


def _figure_rows(figure: int, samples: int, k_max: int):
    if figure == 1:
        header = ["x"] + [f"g{k}" for k in range(1, 6)]
        xs = np.linspace(0.0, 1.0, samples)
        cols = [xs] + [bounds.g_k(xs, k) for k in range(1, 6)]
        meta = ["# figure: 1", f"# samples: {samples}"]
    elif figure == 2:
        header = ["opt", "floor"]
        xs = np.linspace(0.0, 1.0, samples, endpoint=False)
        cols = [xs, bounds.full_lower_bound_curve(xs, k_max=k_max)]
        meta = ["# figure: 2", f"# samples: {samples}", f"# k_max: {k_max}"]
    elif figure == 3:
        header = ["x", "g"]
        xs = np.linspace(0.5, 1.0, samples)
        cols = [xs, bounds.cut_error_function(xs)]
        meta = ["# figure: 3", f"# samples: {samples}"]
    else:
        header = ["opt_cut", "floor"]
        xs = np.linspace(0.0, 0.5, samples)
        cols = [xs, bounds.cut_error_curve(xs)]
        meta = ["# figure: 4", f"# samples: {samples}"]
    return meta, header, np.column_stack(cols)


def _run_bounds(args) -> int:
    _checked_int("samples", args.samples, 1)
    if args.k_max < 1:
        raise ValueError(f"--k-max must be at least 1, got {args.k_max}")
    meta, header, table = _figure_rows(args.figure, args.samples, args.k_max)
    lines = meta + [",".join(header)]
    for row in table:
        lines.append(",".join(format(v, ".17g") for v in row))
    with _open_output(args.output) as write:
        write("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modkit",
        description="Modularity maximization with certified additive guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p, with_rounding: bool):
        p.add_argument("--input", required=True, help="edge-list file")
        p.add_argument("--variant", default="undirected", choices=VARIANTS)
        p.add_argument("--output", default=None, help="report path (default stdout)")
        if with_rounding:
            p.add_argument("--trials", type=int, default=200)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument(
                "--entropy",
                action="store_true",
                help="draw the seed from OS randomness instead of --seed",
            )
            p.add_argument("--tol-obj", dest="tol_obj", type=float, default=1e-6)
            p.add_argument("--max-iters", dest="max_iters", type=int, default=50000)
            p.add_argument(
                "--iterate-log",
                dest="iterate_log",
                default=None,
                help="CSV file receiving per-iteration solver diagnostics, "
                "written when the run ends ('-' for stdout)",
            )

    p_solve = sub.add_parser("solve", help="full relaxation + adaptive rounding")
    add_graph_args(p_solve, with_rounding=True)

    p_cut = sub.add_parser("cut", help="bipartition relaxation + one hyperplane")
    add_graph_args(p_cut, with_rounding=True)

    p_exact = sub.add_parser("exact", help="brute-force oracle")
    add_graph_args(p_exact, with_rounding=False)
    p_exact.add_argument("--problem", default="full", choices=["full", "cut"])
    p_exact.add_argument(
        "--limit", type=int, default=None, help="enumeration size guard override"
    )

    p_bounds = sub.add_parser("bounds", help="guarantee-curve CSV samples")
    p_bounds.add_argument("--figure", type=int, required=True, choices=[1, 2, 3, 4])
    p_bounds.add_argument("--samples", type=int, default=1000)
    p_bounds.add_argument("--k-max", dest="k_max", type=int, default=bounds.K_CAP)
    p_bounds.add_argument("--output", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's parser, built on its first call: parsing leaves it unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "exact":
            return _run_exact(args)
        if args.command == "bounds":
            return _run_bounds(args)
        return _run_rounding_command(args)
    except (GraphFormatError, ValueError, OSError, MemoryError) as exc:
        print(f"modkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
