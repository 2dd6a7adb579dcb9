"""Command-line front end.

    allsat solve <file> [--mode ...] [solver flags] [--output ...]
    allsat bench <dir> --configs FILE --out DIR [--jobs N]
    allsat verify <file> --a "FLAGS" --b "FLAGS"
    allsat oracle <file>

Exit codes: 0 complete, 10 limit exceeded (partial result), 20 input error
(in verify, also when either configuration rejects the instance), 141
standard output closed before everything was written (128 + SIGPIPE);
verify exits 1 on a detected mismatch.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys

from dataclasses import fields

from .formula import InputError, read_text
from .harness import (CACHE_MODES, EXIT_INPUT, EXIT_OK, MODES, OUTPUTS,
                      STRATEGIES, UIP_SCHEMES, ConfigError, RunConfig,
                      run_instance, run_suite, verify)

EXIT_PIPE = 141             # 128 + SIGPIPE


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    # every dest is a RunConfig field name
    p.add_argument("--mode", default=RunConfig.mode, choices=list(MODES))
    p.add_argument("--uip", choices=UIP_SCHEMES, default=None,
                   help="first-UIP scheme (nonblocking/bdd modes)")
    p.add_argument("--backtrack", choices=STRATEGIES, default=None,
                   help="conflict resolution strategy (nonblocking/bdd modes)")
    p.add_argument("--simplify", action="store_true",
                   help="simplify satisfying assignments (blocking mode)")
    p.add_argument("--continue", dest="continue_search", action="store_true",
                   help="continue search via progress saving (blocking mode)")
    p.add_argument("--cache", choices=CACHE_MODES, default=None,
                   help="formula cache key (bdd modes)")
    p.add_argument("--refresh-threshold", type=int, default=None,
                   metavar="N", help="dump and reset the OBDD at N nodes")
    p.add_argument("--order", dest="order_file", default=None, metavar="FILE",
                   help="variable-order file (one original variable per line)")
    p.add_argument("--time-limit", type=float, default=None, metavar="S")
    p.add_argument("--mem-limit", type=int, default=None, metavar="BYTES")
    p.add_argument("--output", default="count", choices=OUTPUTS)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in fields(RunConfig)})


def parse_config_string(text: str) -> RunConfig:
    """Parse a flag string like ``--mode blocking --simplify`` into a config."""
    parser = argparse.ArgumentParser(prog="config", add_help=False)
    _add_solver_flags(parser)
    try:
        args = parser.parse_args(shlex.split(text))
    except SystemExit:
        raise ConfigError(f"unparseable config {text!r}") from None
    return _config_from_args(args)


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    try:
        cfg.validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    stats = run_instance(args.file, cfg, out=sys.stdout)
    _print_stats(stats)
    return stats.exit_code


def _print_stats(stats) -> None:
    print(f"c instance={stats.instance} config={stats.config} "
          f"solved={int(stats.solved)} solutions={stats.solutions} "
          f"time={stats.wall_time:.3f}s mem={stats.peak_mem} "
          f"decisions={stats.decisions} conflicts={stats.conflicts} "
          f"propagations={stats.propagations} "
          f"cache_hits={stats.cache_hits} cache_misses={stats.cache_misses} "
          f"obdd_nodes={stats.obdd_nodes} dumps={stats.dumps}",
          file=sys.stderr)
    if stats.error:
        print(f"c error: {stats.error}", file=sys.stderr)


def _cmd_bench(args: argparse.Namespace) -> int:
    configs = []
    try:
        for raw in read_text(args.configs).splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cfg = parse_config_string(line)
            cfg.output = "quiet"
            cfg.validate()
            configs.append(cfg)
    except (InputError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not configs:
        print("error: no configurations in file", file=sys.stderr)
        return EXIT_INPUT
    try:
        results = run_suite(args.dir, configs, args.out, jobs=args.jobs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    solved = sum(1 for r in results if r.solved)
    print(f"{len(results)} runs, {solved} solved; tables in {args.out}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        cfg_a = parse_config_string(args.a)
        cfg_b = parse_config_string(args.b)
        for c in (cfg_a, cfg_b):
            c.validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = verify(args.file, cfg_a, cfg_b, save_dir=args.save_dir)
    if report.input_error:
        for p in report.problems:
            print(f"error: {p}", file=sys.stderr)
        return EXIT_INPUT
    print(f"a={cfg_a.label()} count={report.count_a}")
    print(f"b={cfg_b.label()} count={report.count_b}")
    if report.oracle_count is not None:
        print(f"oracle count={report.oracle_count}")
    if report.ok:
        print("agree")
        return EXIT_OK
    for p in report.problems:
        print(f"MISMATCH: {p}")
    if report.counterexample:
        print(f"counterexample saved to {report.counterexample}")
    return 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = RunConfig(mode="oracle", output="count")
    stats = run_instance(args.file, cfg, out=sys.stdout)
    if stats.error:
        print(f"error: {stats.error}", file=sys.stderr)
    return stats.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allsat",
        description="Enumerate all satisfying assignments of a CNF formula.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on one instance")
    p_solve.add_argument("file")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a configuration suite over "
                                           "a directory of instances")
    p_bench.add_argument("dir")
    p_bench.add_argument("--configs", required=True,
                         help="file with one solver flag string per line")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.set_defaults(func=_cmd_bench)

    p_verify = sub.add_parser("verify",
                              help="differential check of two configs")
    p_verify.add_argument("file")
    p_verify.add_argument("--a", required=True, help="flag string, e.g. "
                          "'--mode blocking --simplify'")
    p_verify.add_argument("--b", required=True)
    p_verify.add_argument("--save-dir", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle",
                              help="exhaustive model count (small instances)")
    p_oracle.add_argument("file")
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): send what is still
        # buffered nowhere, so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("c error: standard output closed", file=sys.stderr)
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
