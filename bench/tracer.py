"""Span tracing from outside the program, and the per-layer metrics.

The program has no counters of its own yet, so the benchmark wraps the
public functions of each module *as bound in the module that calls
them* (the engine calls `stablesat.ssc.is_covered`, the CLI calls
`stablesat.cli.gen_ssc`, and so on). Each wrapper records one span:
name, start, end, parent span, the command (instance) it belongs to,
and a few facts read off the arguments or the result. Spans stay in
memory until the run ends; self times are computed from them.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict

# (module, attribute, span name, facts taken from (args, result)).
WRAPS = [
    ("stablesat.cli", "parse_dimacs", "dimacs.parse", None),
    ("stablesat.cli", "gen_ssc", "ssc.gen",
     lambda a, r: {"iterations": r.iterations, "body": len(r.body),
                   "learned": len(r.learned)}),
    ("stablesat.cli", "gen_ssp", "ssp.gen",
     lambda a, r: {"points": len(r.points)}),
    ("stablesat.cli", "gen_ssp_mod_symmetry", "symmetry.gen",
     lambda a, r: {"representatives": len(r.points or ())}),
    ("stablesat.cli", "verify_stable_mod_symmetry", "symmetry.verify", None),
    ("stablesat.cli", "expand_mod_sym_to_ssp", "symmetry.expand",
     lambda a, r: {"points": len(r[0])}),
    ("stablesat.cli", "emit_proof", "proofs.emit", None),
    ("stablesat.cli", "parse_proof", "proofs.parse", None),
    ("stablesat.cli", "replay_proof", "proofs.replay", None),
    ("stablesat.proofs", "verify_ssc", "ssc.verify", None),
    ("stablesat.ssc", "is_covered", "coverage.is_covered",
     lambda a, r: {"covers": len(a[1]), "covered": r == "covered"}),
    ("stablesat.ssc", "pick_split_var", "ssc.split_pick", None),
    ("stablesat.ssc", "merge", "cubes.merge",
     lambda a, r: {"hit": r is not None}),
    ("stablesat.ssc", "cube_nbhd", "cubes.nbhd", None),
]

# Counters that fix the certificate; a pure speed-up leaves them unchanged.
DETERMINISTIC = ["ssc.iterations", "ssc.body", "ssc.learned", "ssc.splits",
                 "cubes.merge_calls", "cubes.nbhd_calls",
                 "coverage.engine_queries", "coverage.verify_queries",
                 "symmetry.representatives", "symmetry.expanded_points",
                 "ssp.points"]


class Tracer:
    """Installs the wrappers, records spans, and removes the wrappers."""

    def __init__(self, clock):
        self.clock = clock       # run.py's clock: reference seconds (pace.py)
        self.spans = []          # [id, name, start, end, parent, instance, facts]
        self._stack = []
        self._instance = 0
        self._saved = []

    def install(self):
        for module_name, attr, name, facts in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, facts))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, func, name, facts):
        spans, stack = self.spans, self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0, stack[-1][0] if stack else -1,
                    self._instance, None]
            spans.append(span)
            stack.append(span)
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if facts is not None:
                span[6] = facts(args, result)
            return result

        return wrapper

    def command(self, func, *args):
        """Run one CLI command as a root span with a fresh instance id."""
        self._instance += 1
        return self._wrap(func, "cli.main", None)(*args)

    def write(self, path: str):
        keys = ("id", "name", "start", "end", "parent", "instance", "facts")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans):
    """Per-layer seconds, self seconds, counts and ratios from one traced pass."""
    by_id = {span[0]: span for span in spans}
    child_time = defaultdict(float)
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]

    def under(span, names):
        parent = span[4]
        while parent >= 0:
            if by_id[parent][1] in names:
                return by_id[parent][1]
            parent = by_id[parent][4]
        return None

    total = defaultdict(float)     # name -> summed duration
    own = defaultdict(float)       # name -> summed self time
    calls = defaultdict(int)
    facts = defaultdict(float)     # "name.fact" -> summed fact
    for span in spans:
        name = span[1]
        if name in ("coverage.is_covered", "cubes.nbhd"):
            context = under(span, ("ssc.gen", "ssc.verify"))
            name += ".engine" if context == "ssc.gen" else ".verify"
        duration = span[3] - span[2]
        total[name] += duration
        own[name] += duration - child_time[span[0]]
        calls[name] += 1
        for key, value in (span[6] or {}).items():
            facts[f"{name}.{key}"] += value

    def mean(numerator, count):
        return numerator / count if count else 0.0

    eng, ver = "coverage.is_covered.engine", "coverage.is_covered.verify"
    return {
        "coverage.engine_s": total[eng],
        "coverage.engine_queries": calls[eng],
        "coverage.engine_covers_mean": mean(facts[eng + ".covers"], calls[eng]),
        "coverage.engine_covered_ratio": mean(facts[eng + ".covered"], calls[eng]),
        "coverage.verify_s": total[ver],
        "coverage.verify_queries": calls[ver],
        "coverage.verify_covers_mean": mean(facts[ver + ".covers"], calls[ver]),
        "ssc.gen_s": total["ssc.gen"],
        "ssc.gen_self_s": own["ssc.gen"],
        "ssc.split_pick_s": total["ssc.split_pick"],
        "ssc.splits": calls["ssc.split_pick"],
        "ssc.iterations": int(facts["ssc.gen.iterations"]),
        "ssc.body": int(facts["ssc.gen.body"]),
        "ssc.learned": int(facts["ssc.gen.learned"]),
        "ssc.verify_s": total["ssc.verify"],
        "ssc.verify_self_s": own["ssc.verify"],
        "cubes.merge_calls": calls["cubes.merge"],
        "cubes.merge_hit_ratio": mean(facts["cubes.merge.hit"], calls["cubes.merge"]),
        "cubes.merge_s": total["cubes.merge"],
        "cubes.nbhd_calls": calls["cubes.nbhd.engine"],
        "symmetry.gen_s": total["symmetry.gen"],
        "symmetry.verify_s": total["symmetry.verify"],
        "symmetry.expand_s": total["symmetry.expand"],
        "symmetry.representatives": int(facts["symmetry.gen.representatives"]),
        "symmetry.expanded_points": int(facts["symmetry.expand.points"]),
        "ssp.gen_s": total["ssp.gen"],
        "ssp.points": int(facts["ssp.gen.points"]),
        "proofs.emit_s": total["proofs.emit"],
        "proofs.parse_s": total["proofs.parse"],
        "proofs.replay_s": total["proofs.replay"],
        "proofs.replay_self_s": own["proofs.replay"],
        "dimacs.parse_s": total["dimacs.parse"],
        "cli.self_s": own["cli.main"],
    }
