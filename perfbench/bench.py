"""Closed-loop benchmark of the modkit CLI, one caller, one process.

Every operation is one in-process call to ``modkit.cli.main(argv)`` on a
generated edge-list file; the next starts when the previous one returns.
A run sets up (corpus, input files, one warm-up op) several times, runs
the workload's corpus once and checks every report with the benchmark's
own code (see checks.py), then repeats ops while ``--seconds`` allows and
reports per-op medians. The bounded times are scaled by a speed probe
(see SpeedProbe); the measured ones are reported beside them.

With ``--trace 1`` every op then runs traced and untraced in turn; the
traced runs give the per-layer metrics and the pairs the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import modkit.cli

import checks
import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import modkit.cli"
# The reference kernel's median time, in seconds, on the 2-vCPU Xeon the
# bounds were set on: a scaled time reads in seconds of that machine.
REF_NOMINAL_S = 3.0e-3
PROBE_GAP_S = 0.3
PROBE_REPEATS = 3
_REF_MATRIX = np.random.default_rng(0).standard_normal((56, 56))
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.T


def metric_units(*kinds: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists under ``kinds``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for kind in kinds for m in spec[kind]}


@dataclass
class Op:
    """One CLI call on one instance of the run."""

    index: int
    drawn: corpus.Drawn
    command: str
    problem: str
    argv: list[str]
    out: Path
    walls: list[float] = field(default_factory=list)  # wall-clock time per run
    report: bytes | None = None
    code: object = None


def machine_info() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def make_ops(drawn: list[corpus.Drawn], workdir: Path) -> list[Op]:
    """Write the input files and list the CLI calls, instance by instance."""
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    (workdir / "reports").mkdir(exist_ok=True)
    ops = []
    for idx, d in enumerate(drawn):
        path = workdir / "inputs" / f"{idx:02d}-{d.instance.name}.txt"
        path.write_text(d.text)
        for k, call in enumerate(d.instance.calls):
            out = workdir / "reports" / f"{idx:02d}-{k}.json"
            argv = [*call, "--input", str(path), "--variant", d.instance.variant,
                    "--output", str(out)]
            if call[0] != "exact":
                argv += ["--seed", str(d.seed)]
            problem = "cut" if call[0] == "cut" or "cut" in call[1:] else "full"
            ops.append(Op(idx, d, call[0], problem, argv, out))
    return ops


def reference_kernel() -> int:
    """Fixed work that does not use modkit: four PSD-projection steps on a
    56 x 56 matrix (eigh, clip, matrix product) and a pure-Python loop."""
    z = _REF_MATRIX
    for _ in range(4):
        w, u = np.linalg.eigh(z)
        np.clip(w, 0.0, None, out=w)
        x = (u * w) @ u.T
        np.fill_diagonal(x, 1.0)
        np.clip(x, 0.0, None, out=x)
        z = x - 0.01 * _REF_MATRIX
    counts: dict[int, int] = {}
    acc = 0
    for i in range(4000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        acc += i * (i & 7)
    return acc


class SpeedProbe:
    """Times the reference kernel before and after each timed call, at most
    every PROBE_GAP_S.

    The machine's speed drifts by up to half between runs, in phases of
    seconds to minutes that the process cannot see otherwise (NOTES.md,
    Timing). The kernel slows with it. ``scale`` turns a time measured
    over the recorded calls into one on a machine where the kernel takes
    REF_NOMINAL_S.
    """

    def __init__(self):
        self.readings = 0
        self.latest = float("nan")
        self._last = -float("inf")
        self._calls: list[tuple[float, float]] = []  # (time, mean reading around it)

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self._last < PROBE_GAP_S:
            return
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
        self.readings += 1
        self.latest = statistics.median(times)
        self._last = time.perf_counter()

    def around(self, measure) -> float:
        """Run ``measure()``, which returns a time, between two readings;
        record that time with the mean of the two and return it."""
        self.sample(force=not self._calls)
        before = self.latest
        elapsed = measure()
        self.sample()
        self._calls.append((elapsed, (before + self.latest) / 2))
        return elapsed

    def reading_s(self) -> float:
        """The kernel's time, averaged over the recorded calls by their time."""
        total = sum(t for t, _ in self._calls)
        return sum(t * r for t, r in self._calls) / total

    def scale(self) -> float:
        return REF_NOMINAL_S / self.reading_s()


def run_op(op: Op, tracer: spans.Tracer | None) -> float:
    """Time one CLI call; keep its exit code (or exception) and report."""
    op.out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            op.code = modkit.cli.main(op.argv)
        else:
            with tracer.span("cli.main"):
                op.code = modkit.cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed op, not a crashed run
        op.code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    op.report = op.out.read_bytes() if op.out.exists() else None
    return elapsed


def check_ops(ops: list[Op], workload: corpus.Workload, qcache: dict):
    """Check every report. Returns the problems per op position (an op
    without problems passed) and, per solve/cut position, the pair
    (upper_bound - best_score, upper_bound - reference). The reference is
    the planted partition's score on the planted workload. On desk-certify
    it is best_score itself: there the checks hold it within the scheme's
    error of the exact optimum, and 2000 trials find the optimum."""
    problems: dict[int, list[str]] = {}
    docs = {}
    gaps = {}
    for pos, op in enumerate(ops):
        found = []
        if op.code != 0:
            found.append(f"exit {op.code}")
        if op.report is None:
            found.append("no report")
        else:
            d = op.drawn
            if id(d) not in qcache:
                qcache[id(d)] = checks.q_matrix(d.instance.n, d.edges, d.instance.variant,
                                                d.left)
            q = qcache[id(d)]
            planted = d.labels if workload.planted_check else None
            try:
                doc = json.loads(op.report)
                if op.command == "exact":
                    found += checks.check_exact_report(doc, q)
                else:
                    found += checks.check_rounding_report(doc, q, op.command, planted)
                    ub, best = doc["report"]["upper_bound"], doc["report"]["best_score"]
                    ref = best if planted is None else checks.score(q, planted)
                    gaps[pos] = (ub - best, ub - ref)
                docs[(op.index, op.problem, op.command == "exact")] = (pos, doc)
            except (ValueError, KeyError, TypeError) as exc:
                found.append(f"malformed report: {exc!r}")
        if found:
            problems[pos] = found
    for (idx, problem, is_exact), (pos, doc) in docs.items():
        if is_exact or (idx, problem, True) not in docs:
            continue
        _, exact_doc = docs[(idx, problem, True)]
        found = checks.check_sandwich(doc, exact_doc, ops[pos].command)
        if found:
            problems.setdefault(pos, []).extend(found)
    return problems, gaps


def layer_metrics(tracer: spans.Tracer) -> dict:
    own = tracer.self_times()
    total = {}
    counts = {}
    for s, t in zip(tracer.spans, own):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        total[s.name + ".self"] = total.get(s.name + ".self", 0.0) + t
        for k, v in s.counts.items():
            counts[(s.name, k)] = counts.get((s.name, k), 0) + v
    solves = [s for s in tracer.spans if s.name.startswith("sdp.solve_")]
    ops_s = total.get("cli.main", 0.0)
    full_s, cut_s = total.get("sdp.solve_full", 0.0), total.get("sdp.solve_cut", 0.0)
    solve_s = full_s + cut_s
    embed_s = total.get("sdp.embed", 0.0)
    round_s = total.get("rounding.round.self", 0.0)
    exact_s = total.get("exact.exact", 0.0)
    iters = sum(s.counts["iterations"] for s in solves)
    trials = counts.get(("rounding.round", "trials"), 0)
    enumerated = counts.get(("exact.exact", "enumerated"), 0)
    eigh_s = sum(s.counts.get("eigh_s", 0.0) for s in solves)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    return {
        "graph.parse_s": total.get("graph.parse", 0.0),
        "modularity.build_q_s": total.get("modularity.build_q", 0.0),
        "sdp.solve_s": solve_s,
        "sdp.full_solve_s": full_s,
        "sdp.cut_solve_s": cut_s,
        "sdp.iterations": iters,
        "sdp.iter_us": ratio(solve_s, iters, 1e6),
        "sdp.converged_frac": ratio(sum(s.counts["converged"] for s in solves), len(solves)),
        "sdp.eigh_share": ratio(eigh_s, solve_s),
        "sdp.embed_s": embed_s,
        "sdp.share": ratio(solve_s + embed_s, ops_s),
        "rounding.round_s": round_s,
        "rounding.trials": trials,
        "rounding.trial_us": ratio(round_s, trials, 1e6),
        "rounding.share": ratio(round_s, ops_s),
        "exact.exact_s": exact_s,
        "exact.enumerated": enumerated,
        "exact.candidate_ns": ratio(exact_s, enumerated, 1e9),
        "exact.share": ratio(exact_s, ops_s),
        "cli.report_s": total.get("cli.report", 0.0),
        "cli.self_s": total.get("cli.main.self", 0.0),
    }


def fresh_import() -> float:
    """Wall time of a fresh interpreter that imports modkit, start-up
    included."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")], check=True)
    return time.perf_counter() - t0


def setup(workload: corpus.Workload, seed: int, corpus_seed: int, workdir: Path):
    """Draw the corpus and this run's relabelling, write the inputs and run
    the warm-up op. Returns (ops, warm-up op)."""
    graphs = corpus.build_corpus(workload, corpus_seed)
    drawn = [corpus.draw(g, np.random.default_rng([seed, i])) for i, g in enumerate(graphs)]
    warm_graph = corpus.warmup_instance(workload, corpus_seed)
    warm = corpus.draw(warm_graph, np.random.default_rng([seed, len(graphs)]))
    warm_ops = make_ops([warm], workdir / "warmup")
    ops = make_ops(drawn, workdir / "corpus")
    run_op(warm_ops[0], None)
    return ops, warm_ops[0]


def run(workload: corpus.Workload, seed: int, seconds: float, trace: bool,
        corpus_seed: int, workdir: Path) -> dict:
    """One benchmark run: the result line's fields plus their details."""
    ops: list[Op] = []
    warm: Op | None = None

    def one_setup() -> float:
        # One fresh interpreter importing modkit plus one set-up in this
        # process.
        nonlocal ops, warm
        import_s = fresh_import()
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        ops, warm = setup(workload, seed, corpus_seed, workdir)
        return import_s + time.perf_counter() - t0

    setup_probe = SpeedProbe()
    setup_times, warm_reports = [], []
    for _ in range(SETUP_REPEATS):
        setup_times.append(setup_probe.around(one_setup))
        warm_reports.append(warm.report)

    probe = SpeedProbe()

    def timed(op: Op) -> None:
        op.walls.append(probe.around(lambda: run_op(op, None)))

    qcache: dict = {}
    # The warm-up op ran once per set-up; it is the op every run repeats.
    warm_problems = check_ops([warm], workload, qcache)[0].get(0, [])
    if len(set(warm_reports)) != 1:
        warm_problems.append("repeated op gave different report bytes")
    attempted, failed = 1, int(bool(warm_problems))
    failures = [f"warmup {warm.command}: {p}" for p in warm_problems]

    # Pass 1 runs every op once and checks every report in full; a later
    # run of an op must give the same exit code and report bytes.
    start = time.perf_counter()
    for op in ops:
        timed(op)
    first = [(op.code, op.report) for op in ops]
    problems, gaps = check_ops(ops, workload, qcache)
    attempted += len(ops)
    failed += len(problems)
    failures += [f"{ops[pos].drawn.instance.name} {ops[pos].command}: {p}"
                 for pos, found in sorted(problems.items()) for p in found]

    def repeated(pos: int) -> None:
        nonlocal attempted, failed
        attempted += 1
        if pos in problems:
            failed += 1
        elif (ops[pos].code, ops[pos].report) != first[pos]:
            failed += 1
            failures.append(f"{ops[pos].drawn.instance.name} {ops[pos].command}: "
                            "repeated op gave another exit code or report")

    tracers = []
    traced = [[] for _ in ops]
    while trace:
        # Each traced op is followed at once by an untraced run of the same
        # op, so the pair sees the same machine state.
        tracer = spans.Tracer()
        t_pass = time.perf_counter()
        for pos, op in enumerate(ops):
            with spans.installed(tracer):
                traced[pos].append(run_op(op, tracer))
            repeated(pos)
            timed(op)
            repeated(pos)
        tracers.append(tracer)
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            break
    while not trace:
        # Ops repeat in corpus order while their last time still fits.
        ran = False
        for pos, op in enumerate(ops):
            if time.perf_counter() - start + op.walls[-1] <= seconds:
                timed(op)
                repeated(pos)
                ran = True
        if not ran:
            break

    rounding_gaps = [g for g, _ in gaps.values()]
    bound_gaps = [g for _, g in gaps.values()]
    # Each op's median over its runs damps bursts of machine noise.
    op_medians = [statistics.median(op.walls) for op in ops]
    wall_s = sum(op_medians)
    setup_s = statistics.median(setup_times)
    metrics = {
        "setup_s": setup_s * setup_probe.scale(),
        "wall_s": wall_s * probe.scale(),
        "bound_gap_mean": statistics.fmean(bound_gaps) if bound_gaps else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "measured_setup_s": setup_s,
        "measured_wall_s": wall_s,
        "probe_ms": probe.reading_s() * 1e3,
        "answer_s.p50": statistics.median(op_medians),
        "rounding.gap_mean": statistics.fmean(rounding_gaps) if rounding_gaps else None,
    }
    # The per-op statistics are taken over one median per op.
    samples = {"setup_s": len(setup_times), "wall_s": len(ops),
               "bound_gap_mean": len(bound_gaps), "peak_rss_mb": 1,
               "measured_setup_s": len(setup_times), "measured_wall_s": len(ops),
               "probe_ms": probe.readings, "answer_s.p50": len(ops),
               "rounding.gap_mean": len(rounding_gaps)}
    if trace:
        layers = [layer_metrics(t) for t in tracers]
        for name, first_value in layers[0].items():
            # Counts repeat exactly from pass to pass; keep them whole.
            pick = statistics.median_low if isinstance(first_value, int) else statistics.median
            metrics[name] = pick(r[name] for r in layers)
            samples[name] = len(layers)
        metrics["trace.overhead_frac"] = (
            sum(statistics.median(t) for t in traced) / wall_s - 1.0)
        samples["trace.overhead_frac"] = len(ops)

    instances = {}
    for pos, op in enumerate(ops):
        inst = op.drawn.instance
        row = instances.setdefault(op.index, {
            "name": inst.name, "variant": inst.variant, "n": inst.n,
            "m": len(inst.edges), "ops": []})
        entry = {"argv": list(op.argv[: op.argv.index("--input")]),
                 "wall_s": op.walls, "exit": op.code}
        if op.command != "exact" and op.report is not None:
            try:
                entry["iterations"] = json.loads(op.report)["solver"]["iterations"]
            except (ValueError, KeyError, TypeError):
                pass
        if pos in gaps:
            entry["rounding_gap"], entry["bound_gap"] = gaps[pos]
        row["ops"].append(entry)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "failures": failures,
        "setup_times_s": setup_times,
        "setup_probe_ms": setup_probe.reading_s() * 1e3,
        "traced_times_s": traced,
        "instances": list(instances.values()),
    }


def result_line(res: dict, trace: bool) -> str:
    """The last stdout line: every end-to-end metric, or with tracing every
    per-layer metric."""
    units = metric_units("per_layer" if trace else "end_to_end")
    return json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()},
    })


def describe(res: dict, header: str) -> str:
    units = metric_units("end_to_end", "per_layer")
    lines = [header]
    for name, value in res["metrics"].items():
        unit = units[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:22s} {shown:>12s} {unit:10s} n={res['samples'][name]}")
    runs = [len(op["wall_s"]) for inst in res["instances"] for op in inst["ops"]]
    lines.append(f"  {len(runs)} ops, each run {min(runs)} to {max(runs)} times untraced")
    frac = res["failed"] / res["attempted"]
    lines.append(f"  {'failed_frac':22s} {frac:>12.6g} {'ratio':10s} "
                 f"{res['failed']}/{res['attempted']} ops")
    lines += [f"  FAILED {f}" for f in res["failures"][:20]]
    return "\n".join(lines)


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    tmp = ROOT / ".bench_work" / f"all-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    runs = {}
    try:
        for name in corpus.WORKLOADS:
            for trace in (0, 1):
                out = tmp / f"{name}-{trace}.json"
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--corpus-seed", str(args.corpus_seed),
                       "--out", str(out)]
                proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
                if proc.returncode != 0:
                    print(f"perfbench: {name} trace={trace} exited {proc.returncode}",
                          file=sys.stderr)
                    return 1
                doc = json.loads(out.read_text())
                del doc["machine"]  # kept once, at the top
                runs[f"{name}/trace{trace}"] = doc
    finally:
        remove_workdir(tmp)
    doc = {"machine": machine_info(), "seed": args.seed, "corpus_seed": args.corpus_seed,
           "seconds": args.seconds, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    summary = {key: json.loads(result_line(r, bool(r["trace"]))) for key, r in runs.items()}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", dest="corpus_seed", type=int,
                        default=corpus.DEFAULT_CORPUS_SEED,
                        help="seed of the graphs themselves; confirm a claim on "
                             f"the held-out {corpus.HELDOUT_CORPUS_SEED}")
    parser.add_argument("--out", default=None,
                        help="also write the result with its details as JSON")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        res = run(corpus.WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), args.corpus_seed, workdir)
    finally:
        remove_workdir(workdir)
    machine = machine_info()
    header = (f"perfbench {args.workload} seed={args.seed} corpus_seed={args.corpus_seed} "
              f"trace={args.trace} | " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(describe(res, header), file=sys.stderr)
    if args.out:
        doc = {"workload": args.workload, "seed": args.seed, "corpus_seed": args.corpus_seed,
               "seconds": args.seconds, "trace": args.trace, "machine": machine, **res}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(result_line(res, bool(args.trace)))
    return 0
