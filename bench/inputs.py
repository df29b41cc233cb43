"""Seeded input generator for the benchmark workloads.

Everything the program reads is written here as DIMACS and symmetry
files, so the solver only ever sees generated inputs. The same
(workload, seed) pair always yields byte-identical files.

`build` writes one workload's files and returns a manifest of the
commands to run; run.py calls it before the measured part, outside every timer.
"""

from __future__ import annotations

import os
import random

from checks import dpll_sat

# Workload sizes; the comments in the workload functions say why. A pass
# takes 6-20 reference seconds (run.py), so one to five fit in a 36 s run.
PH_SSC_RENAMINGS = 24      # renamed PH(5,4) next to the canonical PH(6,5)
PH_POINTS_RENAMINGS = 24   # renamed PH(4,3) next to the canonical instances
RND3_VARS = 20
RND3_RATIO = 4.26          # the 3-SAT phase transition
RND3_UNSAT = 72            # fixed verdict mix, half SAT; see _rnd3_ssc
RND3_SAT = 72


def ph_clauses(pigeons: int, holes: int):
    """PH(pigeons, holes) in the usual numbering v(i,j) = (i-1)*holes + j."""
    var = lambda i, j: (i - 1) * holes + j
    clauses = [[var(i, j) for j in range(1, holes + 1)]
               for i in range(1, pigeons + 1)]
    for j in range(1, holes + 1):
        for i in range(1, pigeons + 1):
            for k in range(i + 1, pigeons + 1):
                clauses.append([-var(i, j), -var(k, j)])
    return pigeons * holes, clauses


def ph_generators(pigeons: int, holes: int):
    """Adjacent pigeon swaps and adjacent hole swaps, as cycle lists."""
    var = lambda i, j: (i - 1) * holes + j
    gens = [[[var(i, j), var(i + 1, j)] for j in range(1, holes + 1)]
            for i in range(1, pigeons)]
    gens += [[[var(i, j), var(i, j + 1)] for i in range(1, pigeons + 1)]
             for j in range(1, holes)]
    return gens


def rename(num_vars: int, clauses, gens, rng: random.Random):
    """Permute the variables, shuffle the clauses (and the literals in each),
    and conjugate the symmetry generators so they still fix the formula."""
    images = list(range(1, num_vars + 1))
    rng.shuffle(images)
    sigma = dict(zip(range(1, num_vars + 1), images))
    renamed = []
    for clause in clauses:
        lits = [sigma[abs(l)] if l > 0 else -sigma[abs(l)] for l in clause]
        rng.shuffle(lits)
        renamed.append(lits)
    rng.shuffle(renamed)
    renamed_gens = [[[sigma[v] for v in cycle] for cycle in gen] for gen in gens]
    return renamed, renamed_gens


def random_3cnf(n: int, m: int, rng: random.Random):
    """Uniform random 3-CNF: three distinct variables, fair signs."""
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def dimacs_text(num_vars: int, clauses, comment: str) -> str:
    lines = [f"c {comment}", f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(str(l) for l in clause) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def symmetry_text(gens) -> str:
    return "".join("".join("(" + " ".join(map(str, c)) + ")" for c in gen) + "\n"
                   for gen in gens)


class _Writer:
    """Writes instance files into one directory and collects the manifest."""

    def __init__(self, out: str):
        self.out = out
        self.instances = []

    def instance(self, name, num_vars, clauses, comment, gens=None, expect=None):
        cnf = os.path.join(self.out, name + ".cnf")
        with open(cnf, "w", encoding="utf-8") as handle:
            handle.write(dimacs_text(num_vars, clauses, comment))
        entry = {"name": name, "cnf": cnf, "expect": expect, "commands": []}
        if gens is not None:
            entry["sym"] = os.path.join(self.out, name + ".sym")
            with open(entry["sym"], "w", encoding="utf-8") as handle:
                handle.write(symmetry_text(gens))
        self.instances.append(entry)
        return entry

    def solve_verify(self, entry, mode):
        """solve --proof, then verify of that proof."""
        proof = os.path.join(self.out, f"{entry['name']}.{mode}.proof")
        argv = ["solve", "--mode", mode, "--proof", proof]
        if mode == "sym":
            argv += ["--sym", entry["sym"]]
        entry["commands"].append({"kind": "solve", "argv": argv + [entry["cnf"]],
                                  "proof": proof})
        entry["commands"].append({"kind": "verify",
                                  "argv": ["verify", "--proof", proof,
                                           entry["cnf"]],
                                  "proof": proof})

    def solve_only(self, entry, argv):
        entry["commands"].append({"kind": "solve",
                                  "argv": ["solve"] + argv + [entry["cnf"]],
                                  "proof": None})


def _ph(writer, name, pigeons, holes, rng=None, sym=False):
    """A PH instance, renamed when rng is given, with generators if sym."""
    n, clauses = ph_clauses(pigeons, holes)
    gens = ph_generators(pigeons, holes)
    if rng is not None:
        clauses, gens = rename(n, clauses, gens, rng)
    comment = f"PH({pigeons},{holes}) " + ("renamed" if rng else "canonical")
    return writer.instance(name, n, clauses, comment, gens=gens if sym else None,
                           expect="UNSAT")


def _ph_ssc(writer, rng, tiny):
    # Coverage queries and clause learning dominate the cube-cluster engine
    # on pigeon-hole formulas: canonical PH(6,5) learns 409 clauses against
    # 81 inputs. Renamings permute the variables and shuffle the clauses,
    # which changes split and merge order. A renamed PH(6,5) takes 4-6 s
    # with a 20% spread between renamings, so a run could hold only a few
    # and the seed alone would move solve_s by 15-30%; many renamed PH(5,4)
    # (0.3 s each, about 105 learned against 45 inputs) average that out.
    big, small = ((4, 3), (3, 2)) if tiny else ((6, 5), (5, 4))
    writer.solve_verify(_ph(writer, "ph-canonical", *big), "ssc")
    for k in range(2 if tiny else PH_SSC_RENAMINGS):
        writer.solve_verify(_ph(writer, f"ph-renamed-{k}", *small, rng=rng), "ssc")


def _rnd3_ssc(writer, rng, tiny):
    # The same engine on random 3-CNF at the phase transition: SAT runs end
    # on a witness with no Body certificate, UNSAT runs learn about as many
    # clauses as they have inputs. Speeding up certificate growth at the
    # cost of the model search shows here and not on ph-ssc. Formulas are
    # drawn until the referee has filled a fixed SAT/UNSAT mix: with a
    # free mix the UNSAT count alone would move verify_s by about 40%
    # from seed to seed. At n=20 a formula takes 0.05-0.3 s; at n=30
    # (0.5-2.5 s) a run would hold about ten and the seed's draw would
    # dominate the sums. Even 72 fresh formulas per seed moved solve_s by
    # 20% from seed to seed, so the formulas are drawn once, from a fixed
    # stream, and the seed renames them, as it renames the pigeon-hole
    # formulas of the other workloads. A renaming still changes the
    # certificate of every UNSAT formula, so verify_s moved by 18% between
    # seeds with 72 formulas; 144 halve that.
    n = 12 if tiny else RND3_VARS
    m = round(RND3_RATIO * n)
    want = {"UNSAT": 1 if tiny else RND3_UNSAT, "SAT": 2 if tiny else RND3_SAT}
    draws = random.Random("rnd3-ssc/formulas")
    drawn = 0
    while any(want.values()):
        clauses = random_3cnf(n, m, draws)
        drawn += 1
        verdict = "SAT" if dpll_sat(clauses) else "UNSAT"
        if not want[verdict]:
            continue
        want[verdict] -= 1
        renamed, _ = rename(n, clauses, [], rng)
        entry = writer.instance(f"rnd3-{len(writer.instances)}", n, renamed,
                                f"random 3-CNF n={n} m={m} draw {drawn}, renamed",
                                expect=verdict)
        writer.solve_verify(entry, "ssc")


def _ph_points(writer, rng, tiny):
    # The point engines: no coverage query runs inside the engine, so
    # engine-coverage changes must leave solve_s here unchanged, while the
    # quadratic check of point certificates dominates verify_s. The
    # canonical numbering is the slowest case of every command. Renamed
    # PH(5,4) certificates vary so much in size that the quadratic check of
    # one takes 1-6 s, and two of them moved verify_s by 40% from seed to
    # seed; the seed's renamings are therefore of PH(4,3).
    big, mid, small = ((4, 3), (3, 2), (3, 2)) if tiny else ((6, 5), (5, 4), (4, 3))
    entry = _ph(writer, "ph-sym-canonical", *big, sym=True)
    # Its expanded certificate has 46656 points and no replay of it
    # finishes, so only the solve with its modulo-symmetry self-check runs.
    writer.solve_only(entry, ["--mode", "sym", "--sym", entry["sym"]])
    for k in range(1 + (1 if tiny else PH_POINTS_RENAMINGS)):
        entry = (_ph(writer, f"ph-points-{k}", *small, rng=rng, sym=True) if k
                 else _ph(writer, "ph-points-canonical", *mid, sym=True))
        writer.solve_verify(entry, "sym")
        writer.solve_verify(entry, "ssp")


WORKLOADS = {"ph-ssc": _ph_ssc, "rnd3-ssc": _rnd3_ssc, "ph-points": _ph_points}


def build(workload: str, seed: int, out: str, tiny: bool = False):
    """Write the workload's files into out; return the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out, exist_ok=True)
    writer = _Writer(out)
    WORKLOADS[workload](writer, random.Random(f"{workload}/{seed}"), tiny)
    return {"workload": workload, "seed": seed, "tiny": tiny,
            "instances": writer.instances}
