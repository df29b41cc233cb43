import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stablesat.coverage import COVERED, UNCOVERED, CoverIndex, is_covered
from stablesat.cubes import Cube
from stablesat.ssc import SscConfig, gen_ssc
from stablesat.symmetry import ph_formula
from conftest import (cube_contains, cube_points, intersects, random_3cnf,
                      tuple_cube, union_count)


def cube(lits, n):
    return Cube.from_literals(lits, n)


def brute_covered(target, covers):
    return all(any(cube_contains(c, tuple_cube(p)) for c in covers)
               for p in cube_points(target))


def random_cubes(n, k, rng):
    out = []
    for _ in range(k):
        mask = rng.getrandbits(n)
        out.append(Cube(n, mask, rng.getrandbits(n) & mask))
    return out


def test_is_covered_single_member():
    p1 = cube([-2, -3], 4)
    assert is_covered(p1, CoverIndex(4, [p1])) == COVERED


def test_is_covered_union_miss():
    target = cube([2, 3], 4)
    covers = CoverIndex(4, [cube([-2, -3], 4), cube([2, -3], 4)])
    assert is_covered(target, covers) == UNCOVERED


def test_is_covered_universal_cover():
    rng = random.Random(1)
    for c in random_cubes(5, 20, rng):
        assert is_covered(c, CoverIndex(5, [Cube.full(5)])) == COVERED


def test_is_covered_needs_several_covers():
    # x1 is covered by the two halves x1 x2 and x1 -x2 together only.
    target = cube([1], 2)
    halves = [cube([1, 2], 2), cube([1, -2], 2)]
    assert is_covered(target, CoverIndex(2, halves)) == COVERED
    assert is_covered(target, CoverIndex(2, halves[:1])) == UNCOVERED


def test_is_covered_arity_mismatch():
    with pytest.raises(ValueError):
        is_covered(cube([1], 2), CoverIndex(3, [cube([1], 3)]))


def test_is_covered_fast_exits():
    target = cube([1, -2], 4)

    def verdict(covers, shared_literal=False):
        return is_covered(target, CoverIndex(4, covers), shared_literal)

    # The target is among the covers.
    assert verdict([cube([3], 4), target]) == COVERED
    # A strict superset cover.
    assert verdict([cube([2, 3], 4), cube([-2], 4)]) == COVERED
    # No cover meets the target.
    assert verdict([cube([-1], 4), cube([2, 3], 4)]) == UNCOVERED
    # Covers meeting it, none containing it, decided by splitting.
    assert verdict([cube([1, -2, 3], 4)]) == UNCOVERED
    assert verdict([cube([1, -2, 3], 4), cube([-3], 4)]) == COVERED
    # A containing cover under shared_literal.
    assert verdict([cube([-1, 3], 4), cube([1], 4)],
                   shared_literal=True) == COVERED
    assert verdict([cube([3], 4)], shared_literal=True) == UNCOVERED


def test_is_covered_arity_mismatch_raises_before_fast_exits():
    # The covers would answer at once: the empty index misses the target,
    # and the full cube contains it.
    target = cube([1], 2)
    with pytest.raises(ValueError):
        is_covered(target, CoverIndex(3))
    for covers in (CoverIndex(3), CoverIndex(3, [Cube.full(3)])):
        for shared_literal in (False, True):
            with pytest.raises(ValueError):
                is_covered(target, covers, shared_literal)


def test_is_covered_matches_brute_force():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 6)
        target_mask = rng.getrandbits(n)
        target = Cube(n, target_mask, rng.getrandbits(n) & target_mask)
        covers = random_cubes(n, rng.randint(0, 5), rng)
        verdict = is_covered(target, CoverIndex(n, covers))
        assert verdict in (COVERED, UNCOVERED)
        assert (verdict == COVERED) == brute_covered(target, covers)


def test_shared_scope_is_sound_but_not_exact():
    rng = random.Random(3)
    weaker = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        target_mask = rng.getrandbits(n)
        target = Cube(n, target_mask, rng.getrandbits(n) & target_mask)
        covers = random_cubes(n, rng.randint(0, 5), rng)
        index = CoverIndex(n, covers)
        shared = is_covered(target, index, shared_literal=True)
        full = is_covered(target, index)
        if shared == COVERED:
            assert full == COVERED
        elif full == COVERED:
            weaker += 1
    assert weaker > 0  # the restriction genuinely loses some coverages


def test_shared_scope_misses_a_true_cover():
    # The full space is covered by -1 and 1, but neither shares a literal
    # with the all-free target.
    target = Cube.full(1)
    covers = CoverIndex(1, [cube([-1], 1), cube([1], 1)])
    assert is_covered(target, covers) == COVERED
    assert is_covered(target, covers, shared_literal=True) == UNCOVERED


def test_coverage_config_validation():
    with pytest.raises(ValueError):
        SscConfig(coverage="partial")


# Criterion 6 and the xi tests count the Body's union with the test
# reference `union_count`, which lists points as packed bits; check it
# against tuple enumeration.

def test_union_count_examples():
    assert union_count([cube([-2, -3], 4), cube([2, -3], 4)]) == 8
    assert union_count([]) == 0
    assert union_count([Cube.full(3)]) == 8
    assert union_count([Cube.full(0)]) == 1


def test_union_count_matches_brute_force():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 6)
        covers = random_cubes(n, rng.randint(0, 5), rng)
        points = set()
        for c in covers:
            points.update(cube_points(c))
        assert union_count(covers) == len(points)


def shares_literal(a, b):
    return a.mask & b.mask & ~(a.val ^ b.val) != 0


def reference_is_covered(target, covers, shared_literal=False):
    """The list-scan coverage query the index replaced, kept as the
    reference: filter every cover, recurse on Cube regions."""
    for c in covers:
        if c.n != target.n:
            raise ValueError("cube arity mismatch in coverage query")
    if shared_literal:
        covers = [c for c in covers if shares_literal(c, target)]

    def rec(region, cubes):
        live = [c for c in cubes if intersects(c, region)]
        if not live:
            return UNCOVERED
        if any(cube_contains(c, region) for c in live):
            return COVERED
        big = max(live, key=lambda c: c.free_count())
        pinned = big.mask & ~region.mask
        zero, one = region.split((pinned & -pinned).bit_length())
        if rec(zero, live) == UNCOVERED:
            return UNCOVERED
        return rec(one, live)

    return rec(target, list(covers))


def cubes_of(n):
    full = (1 << n) - 1
    return st.builds(lambda mask, val: Cube(n, mask, val & mask),
                     st.integers(0, full), st.integers(0, full))


@st.composite
def index_runs(draw, max_n=12):
    """Arity, a sequence of (add?, cube) over a small pool so that copies
    repeat, and a few query targets."""
    n = draw(st.integers(0, max_n))
    pool = draw(st.lists(cubes_of(n), min_size=1, max_size=6))
    ops = draw(st.lists(st.tuples(st.booleans(), st.sampled_from(pool)),
                        max_size=40))
    targets = draw(st.lists(cubes_of(n), min_size=1, max_size=4))
    return n, ops, targets


def replay(n, ops, index=None, model=None):
    """The index after the operations, and the multiset they leave, from
    an empty index or from the given index and its multiset."""
    if index is None:
        index, model = CoverIndex(n), Counter()
    for add, c in ops:
        if add:
            index.add(c)
            model[c] += 1
        else:
            index.discard(c)
            if model[c]:
                model[c] -= 1
    return index, +model


@settings(max_examples=200, deadline=None)
@given(index_runs())
def test_cover_index_matches_list_filter(run):
    n, ops, targets = run
    index, model = replay(n, ops)
    assert len(index) == sum(model.values())
    for target in targets:
        meeting = Counter(c for c in model.elements() if intersects(c, target))
        assert Counter(index.meeting(target)) == meeting
        shared = Counter(c for c in meeting.elements()
                         if shares_literal(c, target))
        assert Counter(index.meeting(target, shared_literal=True)) == shared


@settings(max_examples=200, deadline=None)
@given(index_runs(), st.data())
def test_pins_built_mid_run_stay_current(run, data):
    # A query on the whole space reads no literal and builds no pins; the
    # first query that reads one builds them, and every later add and
    # discard keeps them current.
    n, ops, targets = run
    assume(n > 0)
    cut = data.draw(st.integers(0, len(ops)))
    index, model = replay(n, ops[:cut])
    assert Counter(index.meeting(Cube.full(n))) == model
    assert index.pins is None
    index.meeting(Cube(n, 1, data.draw(st.integers(0, 1))))
    assert index.pins is not None
    index, model = replay(n, ops[cut:], index, model)
    for target in targets:
        meeting = Counter(c for c in model.elements() if intersects(c, target))
        assert Counter(index.meeting(target)) == meeting


@settings(max_examples=200, deadline=None)
@given(index_runs(max_n=6), st.booleans())
def test_is_covered_on_index_matches_brute_force(run, shared_literal):
    n, ops, targets = run
    index, model = replay(n, ops)
    covers = list(model.elements())
    for target in targets:
        if shared_literal:
            scoped = [c for c in covers if shares_literal(c, target)]
        else:
            scoped = covers
        expected = COVERED if brute_covered(target, scoped) else UNCOVERED
        assert is_covered(target, index, shared_literal) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
           cubes_of(n), st.lists(cubes_of(n), max_size=10))),
       st.booleans())
def test_is_covered_on_list_matches_reference(query, shared_literal):
    target, covers = query
    assert is_covered(target, CoverIndex(target.n, covers), shared_literal) \
        == reference_is_covered(target, covers, shared_literal)


def test_cover_index_checks_arity_once_added():
    index = CoverIndex(3, [cube([1], 3)])
    with pytest.raises(ValueError):
        index.add(cube([1], 4))
    with pytest.raises(ValueError):
        index.meeting(cube([1], 2))
    index.discard(cube([2], 3))     # absent: nothing happens
    assert len(index) == 1


@st.composite
def split_trees(draw, max_n=7):
    """The leaves of a random split tree over n variables, with some
    deleted: the cover sets whose regions often have a pin every
    surviving cover shares, as the Bodies of the all-free start do."""
    n = draw(st.integers(1, max_n))
    leaves = [Cube.full(n)]
    for _ in range(draw(st.integers(0, 16))):
        i = draw(st.integers(0, len(leaves) - 1))
        free = [v for v in range(1, n + 1) if not leaves[i].mask >> (v - 1) & 1]
        if free:
            leaves[i:i + 1] = leaves[i].split(draw(st.sampled_from(free)))
    keep = draw(st.lists(st.booleans(), min_size=len(leaves),
                         max_size=len(leaves)))
    targets = draw(st.lists(cubes_of(n), max_size=3))
    return n, [c for c, kept in zip(leaves, keep) if kept], targets


@settings(max_examples=300, deadline=None)
@given(split_trees())
def test_split_tree_covers_match_brute_force(tree):
    n, covers, targets = tree
    index = CoverIndex(n, covers)
    for target in [Cube.full(n)] + targets:
        expected = COVERED if brute_covered(target, covers) else UNCOVERED
        assert is_covered(target, index) == expected


def rec_calls(query) -> int:
    """How many times the coverage recursion's `rec` runs during query()."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "rec" and \
                frame.f_code.co_filename.endswith("coverage.py"):
            calls += 1

    sys.setprofile(count)
    try:
        query()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("formula, nodes", [
    (ph_formula(6, 5)[0], 887),                       # 458 clusters
    (random_3cnf(20, 85, random.Random(4)), 159)])    # 81 clusters
def test_whole_space_query_node_counts(formula, nodes):
    # The checker's one query on an all-free Body: a pin every cover of a
    # region shares splits the Body along its own split tree. The counts
    # are deterministic; a change of branch rule shows here first.
    result = gen_ssc(formula)
    assert not result.satisfiable
    space, index = Cube.full(formula.num_vars), CoverIndex(formula.num_vars,
                                                             result.body)
    assert rec_calls(lambda: is_covered(space, index)) == nodes
    assert is_covered(space, index) == COVERED
