"""Command-line front end.

Subcommands: solve (ssp / ssc / ssc-ne / sym engines), gen-ph, verify,
oracle. Exit codes follow the SAT-competition convention: 10 for
satisfiable, 20 for unsatisfiable, 0 for successful verify/generate,
1 for any error.
"""

from __future__ import annotations

import argparse
import sys

from .core import CnfFormula, parse_point
from .coverage import SCOPE_FULL, SCOPE_SHARED, CoverageConfig
from .cubes import Cube
from .dimacs import parse_dimacs, write_dimacs
from .oracle import DEFAULT_CAP, brute_force_sat
from .proofs import emit_proof, parse_proof, replay_proof
from .ssc import SscConfig, gen_ssc
from .ssp import SspConfig, SspResult, gen_ssp
from .symmetry import (OrbitLimitExceeded, expand_mod_sym_to_ssp,
                       format_symmetry_file, gen_ssp_mod_symmetry,
                       parse_symmetry_file, ph_formula,
                       ph_symmetry_generators, verify_stable_mod_symmetry)
from .trace import emit_trace

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_OK = 0
EXIT_ERROR = 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stablesat",
        description="SAT solving by stable sets of points and cube clusters")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide satisfiability of a DIMACS file")
    solve.add_argument("--mode", choices=("ssp", "ssc", "ssc-ne", "sym"),
                       default="ssc")
    solve.add_argument("--init", default=None,
                       help="start point (0/1 string, ssp/sym) or cube literals "
                            "like '-2 -3' (ssc)")
    solve.add_argument("--pop", choices=("fifo", "lifo"), default="fifo")
    solve.add_argument("--no-merge", action="store_true",
                       help="disable cube merging / clause learning")
    solve.add_argument("--coverage", choices=("full", "shared"), default="full")
    solve.add_argument("--split", choices=("first-intersecting", "most-constrained"),
                       default="first-intersecting")
    solve.add_argument("--trace", metavar="PATH", default=None)
    solve.add_argument("--trace-style", choices=("dimacs", "pretty"),
                       default="dimacs")
    solve.add_argument("--proof", metavar="PATH", default=None)
    solve.add_argument("--sym", metavar="PATH", default=None,
                       help="symmetry generators, one cycle-notation line each")
    solve.add_argument("--orbit-limit", type=int, default=10 ** 6)
    solve.add_argument("file")

    gen = sub.add_parser("gen-ph", help="generate a pigeon-hole formula")
    gen.add_argument("pigeons", type=int)
    gen.add_argument("holes", type=int)
    gen.add_argument("-o", "--output", default=None)
    gen.add_argument("--sym-out", default=None,
                     help="also write the symmetry generators here")

    verify = sub.add_parser("verify", help="replay a proof against a formula")
    verify.add_argument("--proof", required=True)
    verify.add_argument("file")

    oracle = sub.add_parser("oracle", help="exhaustive truth-table check")
    oracle.add_argument("--cap", type=int, default=DEFAULT_CAP)
    oracle.add_argument("file")
    return parser


def _load_formula(path: str) -> CnfFormula:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_dimacs(handle.read())


def _print_model(point):
    lits = [i + 1 if v else -(i + 1) for i, v in enumerate(point)]
    lines = [lits[lo:lo + 12] for lo in range(0, len(lits), 12)] or [[]]
    lines[-1].append(0)
    for line in lines:
        print("v " + " ".join(str(l) for l in line))


def _witness_point(cube: Cube):
    # Any completion of the cube is a model; pin free variables to 0.
    return tuple((cube.val >> i) & 1 for i in range(cube.n))


def _write_trace(result, path: str, style: str = "dimacs"):
    with open(path, "w", encoding="utf-8") as handle:
        emit_trace(result.trace, handle, style)


def _cmd_solve(args) -> int:
    formula = _load_formula(args.file)
    coverage = CoverageConfig(
        scope=SCOPE_FULL if args.coverage == "full" else SCOPE_SHARED)

    if args.mode in ("ssc", "ssc-ne"):
        init_cube = None
        if args.init is not None:
            lits = [int(tok) for tok in args.init.replace(",", " ").split()]
            init_cube = Cube.from_literals(lits, formula.num_vars)
        config = SscConfig(
            init_strategy="ne-style" if args.mode == "ssc-ne" else "single-cube",
            init_cube=init_cube, pop_policy=args.pop,
            split_heuristic=args.split, merge_enabled=not args.no_merge,
            coverage=coverage, record_trace=args.trace is not None)
        result = gen_ssc(formula, config)
        if args.trace:
            _write_trace(result, args.trace, args.trace_style)
        if args.proof:
            with open(args.proof, "w", encoding="utf-8") as handle:
                emit_proof(result, handle)
        if result.satisfiable:
            print(f"c witness cube: {result.witness.to_text() or 'T'}")
            print("s SATISFIABLE")
            _print_model(_witness_point(result.witness))
            return EXIT_SAT
        print(f"c body clusters: {len(result.body)}  learned clauses: "
              f"{len(result.learned)}  iterations: {result.iterations}")
        print("s UNSATISFIABLE")
        return EXIT_UNSAT

    if args.mode == "ssp":
        init = parse_point(args.init) if args.init is not None else None
        if init is not None and len(init) != formula.num_vars:
            raise ValueError(f"init point needs {formula.num_vars} values")
        config = SspConfig(pop=args.pop, record_trace=args.trace is not None)
        result = gen_ssp(formula, init, config)
        if args.trace:
            _write_trace(result, args.trace, args.trace_style)
        if args.proof:
            with open(args.proof, "w", encoding="utf-8") as handle:
                emit_proof(result, handle)
        if result.satisfiable:
            print("s SATISFIABLE")
            _print_model(result.witness)
            return EXIT_SAT
        print(f"c stable set size: {len(result.points)}  iterations: "
              f"{result.iterations}")
        print("s UNSATISFIABLE")
        return EXIT_UNSAT

    # mode sym
    if not args.sym:
        raise ValueError("--mode sym requires --sym FILE with generators")
    if args.trace is not None:
        raise ValueError("--mode sym writes no trace; drop --trace")
    if args.pop != "fifo":
        raise ValueError("--mode sym pops in fifo order only; drop --pop lifo")
    with open(args.sym, "r", encoding="utf-8") as handle:
        group = parse_symmetry_file(handle.read(), formula.num_vars)
    init = parse_point(args.init) if args.init is not None else None
    result = gen_ssp_mod_symmetry(formula, group, init,
                                  orbit_limit=args.orbit_limit)
    if result.satisfiable:
        print("s SATISFIABLE")
        _print_model(result.witness)
        return EXIT_SAT
    report = verify_stable_mod_symmetry(formula, result.points,
                                        result.transport, group,
                                        limit=args.orbit_limit)
    if not report:
        raise ValueError("internal check failed: " + "; ".join(report.failures))
    print(f"c stable modulo symmetry, representatives: {len(result.points)}")
    if args.proof:
        points, transport = expand_mod_sym_to_ssp(
            formula, result.points, result.transport, group,
            limit=args.orbit_limit)
        expanded = SspResult(False, points=points, transport=transport)
        with open(args.proof, "w", encoding="utf-8") as handle:
            emit_proof(expanded, handle)
        print(f"c expanded stable set written: {len(points)} points")
    print("s UNSATISFIABLE")
    return EXIT_UNSAT


def _cmd_gen_ph(args) -> int:
    formula, inst = ph_formula(args.pigeons, args.holes)
    text = write_dimacs(formula, comments=[
        f"pigeon-hole: {args.pigeons} pigeons, {args.holes} holes"])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.sym_out:
        group = ph_symmetry_generators(inst)
        with open(args.sym_out, "w", encoding="utf-8") as handle:
            handle.write(format_symmetry_file(group))
    return EXIT_OK


def _cmd_verify(args) -> int:
    formula = _load_formula(args.file)
    with open(args.proof, "r", encoding="utf-8") as handle:
        proof = parse_proof(handle.read())
    report = replay_proof(formula, proof)
    if report:
        print(f"verified: result {proof.result}")
        return EXIT_OK
    for failure in report.failures:
        print(f"error: {failure}", file=sys.stderr)
    return EXIT_ERROR


def _cmd_oracle(args) -> int:
    formula = _load_formula(args.file)
    result = brute_force_sat(formula, cap=args.cap)
    if result.satisfiable:
        print("s SATISFIABLE")
        _print_model(result.witness)
        return EXIT_SAT
    print("s UNSATISFIABLE")
    return EXIT_UNSAT


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    handlers = {"solve": _cmd_solve, "gen-ph": _cmd_gen_ph,
                "verify": _cmd_verify, "oracle": _cmd_oracle}
    try:
        return handlers[args.command](args)
    except OrbitLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main():  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
