"""Command-line front end.

Subcommands: solve (ssp / ssc / ssc-ne / sym engines), gen-ph, verify,
oracle. Exit codes follow the SAT-competition convention: 10 for
satisfiable, 20 for unsatisfiable, 0 for successful verify/generate,
1 for any error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import CnfFormula, bits_to_point, parse_point
from .cubes import Cube
from .dimacs import parse_dimacs, write_dimacs
from .oracle import DEFAULT_CAP, brute_force_sat
from .proofs import emit_proof, parse_proof, proof_from_result, replay_proof
from .ssc import SscConfig, gen_ssc
from .ssp import SspConfig, gen_ssp
from .symmetry import (OrbitLimitExceeded, expand_mod_sym_to_ssp,
                       format_symmetry_file, gen_ssp_mod_symmetry,
                       group_from_cycles, parse_symmetry_file, ph_formula,
                       ph_symmetry_generators, verify_stable_mod_symmetry)
from .trace import emit_trace

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_OK = 0
EXIT_ERROR = 1


@functools.cache   # built once per process, at the first command
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
    # The flags of _MODE_FLAGS default to None, so that a mode not reading
    # one can tell that it was given.
    solve.add_argument("--pop", choices=("fifo", "lifo"), default=None)
    solve.add_argument("--no-merge", action="store_true", default=None,
                       help="disable cube merging / clause learning")
    solve.add_argument("--coverage", choices=("full", "shared"), default=None)
    solve.add_argument("--split", choices=("unit-first", "first-intersecting"),
                       default=None)
    solve.add_argument("--trace", metavar="PATH", default=None)
    solve.add_argument("--trace-style", choices=("dimacs", "pretty"),
                       default=None, help="dimacs (default) or pretty; needs --trace")
    solve.add_argument("--proof", metavar="PATH", default=None)
    solve.add_argument("--sym", metavar="PATH", default=None,
                       help="symmetry generators, one cycle-notation line each")
    solve.add_argument("--orbit-limit", type=int, default=None)
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


# Flags read by some modes only: (attribute, flag, the modes reading it).
_MODE_FLAGS = [("init", "--init", ("ssp", "ssc", "sym")),
               ("pop", "--pop", ("ssp", "ssc", "ssc-ne")),
               ("trace", "--trace", ("ssp", "ssc", "ssc-ne")),
               ("no_merge", "--no-merge", ("ssc", "ssc-ne")),
               ("split", "--split", ("ssc", "ssc-ne")),
               ("coverage", "--coverage", ("ssc", "ssc-ne")),
               ("sym", "--sym", ("sym",)),
               ("orbit_limit", "--orbit-limit", ("sym",))]


# A runner runs one mode's engine and prints its `c` lines. It returns
# the result, the certificate that --proof writes, and the model (None
# when unsatisfiable).

def _given(args, **fields):
    """`field=attr` pairs as {field: args.attr} for the flags given."""
    return {name: getattr(args, attr) for name, attr in fields.items()
            if getattr(args, attr) is not None}


def _solve_ssc(args, formula):
    init_cube = None
    if args.init is not None:
        lits = [int(tok) for tok in args.init.replace(",", " ").split()]
        init_cube = Cube.from_literals(lits, formula.num_vars)
    config = SscConfig(
        init_strategy="ne-style" if args.mode == "ssc-ne" else "single-cube",
        init_cube=init_cube, merge_enabled=not args.no_merge,
        record_trace=args.trace is not None,
        **_given(args, pop_policy="pop", split_heuristic="split",
                 coverage="coverage"))
    result = gen_ssc(formula, config)
    if result.satisfiable:
        print(f"c witness cube: {result.witness.to_text() or 'T'}")
        # Any completion of the cube is a model; free variables read 0.
        return result, result, bits_to_point(result.witness.val,
                                             result.witness.n)
    print(f"c body clusters: {len(result.body)}  learned clauses: "
          f"{len(result.learned)}  iterations: {result.iterations}")
    return result, result, None


def _solve_ssp(args, formula):
    init = parse_point(args.init) if args.init is not None else None
    result = gen_ssp(formula, init, SspConfig(
        record_trace=args.trace is not None, **_given(args, pop="pop")))
    if not result.satisfiable:
        print(f"c stable set size: {len(result.points)}  iterations: "
              f"{result.iterations}")
    return result, result, result.witness


def _solve_sym(args, formula):
    if not args.sym:
        raise ValueError("--mode sym requires --sym FILE with generators")
    with open(args.sym, "r", encoding="utf-8") as handle:
        group = parse_symmetry_file(handle.read(), formula.num_vars)
    init = parse_point(args.init) if args.init is not None else None
    result = gen_ssp_mod_symmetry(formula, group, init,
                                  **_given(args, orbit_limit="orbit_limit"))
    if result.satisfiable:
        return result, result, result.witness
    report = verify_stable_mod_symmetry(formula, result.points,
                                        result.transport, group, result.links)
    if not report:
        raise ValueError("internal check failed: " + "; ".join(report.failures))
    print(f"c stable modulo symmetry, representatives: {len(result.points)}")
    # The proof names the generators and the representatives; verify
    # expands them to the plain stable set, the union of their orbits.
    return result, proof_from_result(
        result, [g.cycles() for g in group.generators]), None


_RUNNERS = {"ssc": _solve_ssc, "ssc-ne": _solve_ssc, "ssp": _solve_ssp,
            "sym": _solve_sym}


def _cmd_solve(args) -> int:
    for attr, flag, modes in _MODE_FLAGS:
        if getattr(args, attr) is not None and args.mode not in modes:
            raise ValueError(f"--mode {args.mode} does not read {flag}; drop {flag}")
    if args.trace_style is not None and args.trace is None:
        raise ValueError("--trace-style without --trace writes nothing; "
                         "drop --trace-style")
    formula = _load_formula(args.file)
    result, certificate, model = _RUNNERS[args.mode](args, formula)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            emit_trace(result.trace, handle, args.trace_style or "dimacs")
    if args.proof:
        with open(args.proof, "w", encoding="utf-8") as handle:
            emit_proof(certificate, handle)
    return _print_verdict(model)


def _print_verdict(model) -> int:
    if model is None:
        print("s UNSATISFIABLE")
        return EXIT_UNSAT
    print("s SATISFIABLE")
    _print_model(model)
    return EXIT_SAT


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
    expand = None
    if proof.generators:   # the checker judges the union of the orbits
        group = group_from_cycles(proof.generators, formula.num_vars)

        def expand(points, transport):
            return expand_mod_sym_to_ssp(formula, points, transport, group)
    report = replay_proof(formula, proof, expand)
    if report:
        print(f"verified: result {proof.result}")
        return EXIT_OK
    for failure in report.failures:
        print(f"error: {failure}", file=sys.stderr)
    return EXIT_ERROR


def _cmd_oracle(args) -> int:
    formula = _load_formula(args.file)
    return _print_verdict(brute_force_sat(formula, cap=args.cap).witness)


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
    except (OrbitLimitExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main():  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
