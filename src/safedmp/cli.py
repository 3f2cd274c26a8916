"""Command-line front end: learn a model, run a scenario, benchmark a suite.

Exit codes: 0 success, 2 input or parse error, 3 safety infeasible,
4 non-convergence.  Every command is deterministic for fixed inputs; wall
clock timing is only written when --timing is passed, since it can never be
byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import pathlib
import sys

import numpy as np

from . import bench, dmp, safe_exec, trajectory
from .errors import INPUT_ERRORS, InvalidInputError, ParseError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGED = 4


def write_log_csv(log: safe_exec.ExecutionLog, path) -> None:
    """Write ``log.rows`` under the names of :func:`safe_exec.log_columns`.

    The bytes are those of ``csv.writer`` writing the header and
    ``log.rows.tolist()``: floats in shortest round-trip formatting (their
    ``repr``), comma separated, ``\\r\\n`` line ends, no quoting (no column
    name or float ``repr`` holds a comma, quote or line break).  Logs repeat
    many values (under an ideal plant each measured position is the
    previous command), so each distinct 64-bit pattern is formatted once
    and indexed back into the rows.  Keying on bits, not values, keeps
    ``-0.0`` apart from ``0.0``.  A log of no steps (a run infeasible at
    its first step) is the header alone.
    """
    bits = np.ascontiguousarray(log.rows).view(np.int64)
    distinct, index = np.unique(bits, return_inverse=True)
    text = np.array([repr(v) for v in distinct.view(float).tolist()], dtype=object)
    lines = [safe_exec.log_columns(log.goal.shape[0])]
    lines += text[index].reshape(bits.shape).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join([",".join(line) + "\r\n" for line in lines]))


def read_log_csv(path) -> np.ndarray:
    """Parse a log written by :func:`write_log_csv` back into its rows.

    Returns the ``(steps, 4d+4)`` float array of ``ExecutionLog.rows``;
    values round-trip exactly.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty log file", line=1) from None
        if header != safe_exec.log_columns((len(header) - 4) // 4):
            raise ParseError("malformed log header", line=1)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(row)}", line=lineno
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
    return np.array(rows, dtype=float).reshape(-1, len(header))


def cmd_learn(args) -> int:
    if args.seed < 0:
        raise InvalidInputError(f"--seed must be non-negative, got {args.seed}")
    rotation = None
    if args.rotate_random:
        from scipy.spatial.transform import Rotation

        rng = np.random.default_rng(args.seed)
        rotation = tuple(Rotation.random(random_state=rng).as_matrix().ravel())
    preprocess = bench.PreprocessOptions(
        resample_n=args.resample_n, cutoff_hz=args.cutoff_hz,
        z_height=args.z_height, rotation=rotation,
    )
    options = bench.DmpOptions(alpha=args.alpha, n_basis=args.n_basis)
    demo, model = bench.learn_demo(args.demo, preprocess, options)
    # the goal check also rejects a bad --dt before the model is written
    goal_check = dmp.rollout(model, args.dt)
    dmp.save_model(model, args.out)

    check_dt = 1e-3
    result = dmp.rollout(
        model, check_dt, horizon=model.tau_nominal, stop_at_goal=False
    )
    fidelity = bench.mae(result.trajectory, demo)
    diagonal = demo.bounding_box_diagonal()
    print(f"model written to {args.out}")
    print(
        f"rollout-vs-demo MAE: {fidelity:.6g} m "
        f"({100.0 * fidelity / diagonal:.3g}% of bounding-box diagonal)"
    )
    if not goal_check.converged:
        print("warning: rollout did not reach the goal within the horizon",
              file=sys.stderr)
    return EXIT_OK


def cmd_run(args) -> int:
    model = dmp.load_model(args.model)
    scenario = bench.load_scenario(args.scenario)
    if args.method:
        scenario = dataclasses.replace(scenario, method=args.method)
    if args.dt is not None:
        scenario = dataclasses.replace(scenario, dt=args.dt)

    prepared = bench.plan(scenario, model)
    log = bench.run_scenario(prepared, with_timing=args.timing)
    prefix = pathlib.Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    log_path = prefix.with_name(prefix.name + "_log.csv")
    metrics_path = prefix.with_name(prefix.name + "_metrics.json")
    write_log_csv(log, log_path)
    row = bench.ReportRow(scenario.name, scenario.method,
                          bench.evaluate(prepared, log))
    metrics_path.write_text(bench.report_to_json([row]), encoding="utf-8")
    print(f"log written to {log_path}")
    print(f"metrics written to {metrics_path}")
    if log.safety_infeasible:
        print("safety infeasible: clearance spheres admit no projection",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    if not log.converged:
        print("run did not converge within the horizon", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_bench(args) -> int:
    directory = pathlib.Path(args.scenario_dir)
    if not directory.is_dir():
        raise InvalidInputError(f"{directory} is not a directory")
    paths = sorted(directory.glob("*.json"))
    scenarios = [bench.load_scenario(p) for p in paths]
    rows = bench.compare(scenarios, with_timing=args.timing)
    prefix = pathlib.Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    json_path = prefix.with_name(prefix.name + "_report.json")
    text_path = prefix.with_name(prefix.name + "_report.txt")
    json_path.write_text(bench.report_to_json(rows), encoding="utf-8")
    text_path.write_text(bench.report_to_text(rows), encoding="utf-8")
    print(f"report written to {json_path} and {text_path}")
    sys.stdout.write(bench.report_to_text(rows))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; :func:`main` dispatches
    on ``args.command`` through the module's current ``cmd_*`` functions."""
    parser = argparse.ArgumentParser(
        prog="safedmp",
        description="Learn motion primitives, execute them under a safety "
                    "tube, and benchmark against a potential-field baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="learn a model from a demonstration")
    learn.add_argument("--demo", required=True,
                       help="CSV path or builtin:<minjerk|sine2|sshape>")
    learn.add_argument("--out", required=True, help="output model JSON path")
    learn.add_argument("--n-basis", type=int, default=dmp.DEFAULT_N_BASIS,
                       dest="n_basis")
    learn.add_argument("--alpha", type=float, default=dmp.DEFAULT_ALPHA)
    learn.add_argument("--dt", type=float, default=safe_exec.DEFAULT_DT)
    learn.add_argument("--resample-n", type=int,
                       default=trajectory.DEFAULT_RESAMPLE_N, dest="resample_n")
    learn.add_argument("--cutoff-hz", type=float,
                       default=trajectory.DEFAULT_CUTOFF_HZ, dest="cutoff_hz")
    learn.add_argument("--z-height", type=float,
                       default=trajectory.DEFAULT_Z_HEIGHT, dest="z_height")
    learn.add_argument("--rotate-random", action="store_true",
                       dest="rotate_random",
                       help="apply a seeded random rotation after lifting")
    learn.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="execute a model in a scenario")
    run.add_argument("--model", required=True, help="model JSON path")
    run.add_argument("--scenario", required=True, help="scenario JSON path")
    run.add_argument("--out", required=True, help="output prefix")
    run.add_argument("--method", choices=bench.METHODS, default=None)
    run.add_argument("--dt", type=float, default=None)
    run.add_argument("--timing", action="store_true",
                     help="include (non-reproducible) wall-clock timing")

    bench_cmd = sub.add_parser("bench", help="compare methods over a scenario dir")
    bench_cmd.add_argument("--scenario-dir", required=True, dest="scenario_dir")
    bench_cmd.add_argument("--out", required=True, help="output prefix")
    bench_cmd.add_argument("--timing", action="store_true",
                           help="include (non-reproducible) wall-clock timing")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"learn": cmd_learn, "run": cmd_run, "bench": cmd_bench}[args.command]
    try:
        return command(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
