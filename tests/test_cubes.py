import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesat.core import Clause, CnfFormula, resolvable_on, resolve
from stablesat.cubes import (Cube, cube_falsifies, cube_nbhd, cube_satisfies,
                             merge, unreached_neighbors, unsat_cube)
from stablesat.trace import prettify_payload
from conftest import (count_points, cube_contains, cube_points, intersects,
                      point_nbhd, random_clause, traced_peak, tuple_cube)


def cube(lits, n):
    return Cube.from_literals(lits, n)


def set_reference(lits, n):
    """What Clause(lits) and Cube.from_literals(lits, n) hold, from Python
    sets: the clause's (lits, fmask, fval) and the cube's (mask, val), each
    with the message of every fault it has instead, if any."""
    distinct = set(lits)
    both = sorted(v for v in distinct if v > 0 and -v in distinct)
    zero = ["0 is not a literal"] if 0 in distinct else []
    clause_faults = zero + [f"tautological clause: both polarities of x{v}"
                            for v in both]
    cube_faults = zero + [f"conflicting literals for x{v}" for v in both] + \
        [f"variable x{v} above cube arity {n}"
         for v in sorted({abs(l) for l in distinct}) if v > max(n, 0)] + \
        ["cube arity must be >= 0"] * (n < 0)
    pos = sum(1 << (l - 1) for l in distinct if l > 0)
    neg = sum(1 << (-l - 1) for l in distinct if l < 0)
    clause = (tuple(sorted(distinct, key=abs)), pos | neg, neg)
    return (clause_faults or clause), (cube_faults or (pos | neg, pos))


def built(make):
    """The value of make(), or the message of the ValueError it raised."""
    try:
        return make()
    except ValueError as exc:
        return [str(exc)]


@settings(max_examples=400, deadline=None)
@given(st.integers(-1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-n - 2, n + 2), max_size=8))))
def test_literal_codec_matches_a_set_reference(case):
    # Duplicates, conflicts, 0, variables above n and n < 0: the same
    # values, a refusal on the same inputs, the message of a single fault.
    n, lits = case
    want_clause, want_cube = set_reference(lits, n)

    def clause():
        c = Clause(lits)
        return c.lits, c.fmask, c.fval

    for got, want in ((built(clause), want_clause),
                      (built(lambda: Cube.from_literals(lits, n)), want_cube),
                      (built(lambda: Cube.from_literals(iter(lits), n)),
                       want_cube)):
        if isinstance(got, Cube):
            got = (got.mask, got.val)
        if isinstance(want, list):    # the faults
            assert isinstance(got, list)
            if len(want) == 1:
                assert got == want
        else:
            assert got == want


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 70), st.integers(0, 2 ** 32 - 1))
def test_literal_codec_round_trips(n, seed):
    rng = random.Random(seed)
    mask = rng.getrandbits(n)
    c = Cube(n, mask, rng.getrandbits(n) & mask)
    assert Cube.from_literals(c.literals(), n) == c
    clause = Clause(random_clause(n, rng)) if n else Clause([])
    again = Clause.from_unsat(clause.fmask, clause.fval)
    assert (again.lits, again.fmask, again.fval) == \
        (clause.lits, clause.fmask, clause.fval)


def test_a_huge_literal_is_refused_in_bounded_memory():
    refusal, peak = traced_peak(lambda: Cube.from_literals([4 * 10 ** 8], 3))
    assert str(refusal) == "variable x400000000 above cube arity 3"
    assert peak < 5 * 2 ** 20


def test_unsat_cube_examples():
    u = unsat_cube(Clause([2, -4]), 4)
    assert u.literals() == (-2, 4)
    assert count_points(u) == 4
    assert unsat_cube(Clause([2, 3]), 4) == cube([-2, -3], 4)
    full = unsat_cube(Clause([]), 2)
    assert full == Cube.full(2) and count_points(full) == 4


def test_unsat_cube_arity_violation():
    with pytest.raises(ValueError):
        unsat_cube(Clause([5]), 4)


def test_unsat_cube_roundtrip_exhaustive():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 6)
        clause = Clause(random_clause(n, rng))
        u = unsat_cube(clause, n)
        members = set(cube_points(u))
        for bits in range(1 << n):
            point = tuple((bits >> i) & 1 for i in range(n))
            falsifies = all((point[abs(l) - 1] == 1) != (l > 0) for l in clause.lits)
            assert (point in members) == falsifies


def test_cube_falsifies_examples(vb_formula):
    c2 = vb_formula.clause_by_id(2)
    assert cube_falsifies(cube([-1, 2, -3], 4), c2)
    assert not cube_falsifies(cube([2, -3], 4), c2)
    assert cube_falsifies(cube([2, -3], 4), Clause([]))


def falsifies_point(clause, point):
    return all((point[abs(l) - 1] == 1) != (l > 0) for l in clause.lits)


def formula_and_cubes(rng):
    """A random formula holding the empty clause, with the full cube, a
    single point and a random cube over its variables."""
    n = rng.randint(1, 6)
    lits = [random_clause(n, rng) for _ in range(rng.randint(0, 8))]
    lits.insert(rng.randint(0, len(lits)), [])
    mask = rng.getrandbits(n)
    cubes = [Cube.full(n), Cube(n, (1 << n) - 1, rng.getrandbits(n)),
             Cube(n, mask, rng.getrandbits(n) & mask)]
    return CnfFormula(n, lits), cubes


def test_cube_falsifies_matches_unsat_containment():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 6)
        clause = Clause(random_clause(n, rng))
        mask = rng.getrandbits(n)
        val = rng.getrandbits(n) & mask
        c = Cube(n, mask, val)
        expected = all(falsifies_point(clause, p) for p in cube_points(c))
        assert cube_falsifies(c, clause) == expected
        assert cube_contains(unsat_cube(clause, n), c) == expected
    for _ in range(100):
        f, cubes = formula_and_cubes(rng)
        for c in cubes:
            expected = [clause for clause in f.clauses
                        if all(falsifies_point(clause, p)
                               for p in cube_points(c))]
            assert f.falsified(c.mask, c.val) == expected
            assert [cl for cl in f.clauses if cube_falsifies(c, cl)] == expected


def test_cube_falsifies_refuses_a_clause_above_the_arity():
    with pytest.raises(ValueError, match="exceeds arity 2"):
        cube_falsifies(cube([1, 2], 2), Clause([1, 3]))
    assert cube_falsifies(cube([-1, -2], 2), Clause([1, 2]))


def test_cube_satisfies_examples():
    assert cube_satisfies(cube([1], 2), Clause([1, 2]))
    assert not cube_satisfies(Cube.full(3), Clause([1, 2]))
    assert cube_satisfies(cube([2, 3], 4), Clause([2, 3]))


def test_cube_satisfies_means_every_point():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        clause = Clause(random_clause(n, rng))
        mask = rng.getrandbits(n)
        c = Cube(n, mask, rng.getrandbits(n) & mask)
        expected = all(any((p[abs(l) - 1] == 1) == (l > 0) for l in clause.lits)
                       for p in cube_points(c))
        assert cube_satisfies(c, clause) == expected
    for _ in range(100):
        f, cubes = formula_and_cubes(rng)
        for c in cubes:
            expected = [clause for clause in f.clauses
                        if any(falsifies_point(clause, p)
                               for p in cube_points(c))]
            assert list(f.clauses_of(f.meeting_bits(c.mask, c.val))) == \
                expected
            assert [cl for cl in f.clauses if not cube_satisfies(c, cl)] == expected


def test_cube_satisfies_is_a_miss_of_the_unsat_cube():
    rng = random.Random(34)
    for _ in range(500):
        n = rng.randint(0, 7)
        clause = Clause(random_clause(n, rng, rng.randint(1, n))
                        if n and rng.random() < 0.9 else [])
        mask = rng.getrandbits(n)
        c = Cube(n, mask, rng.getrandbits(n) & mask)
        assert cube_satisfies(c, clause) == \
            (not intersects(unsat_cube(clause, n), c))
    with pytest.raises(ValueError, match="exceeds arity 2"):
        cube_satisfies(cube([1], 2), Clause([1, 3]))


def test_split_examples():
    zero, one = cube([2, -3], 4).split(1)
    assert zero == cube([-1, 2, -3], 4)
    assert one == cube([1, 2, -3], 4)
    zero, one = cube([-2, 3], 4).split(4)
    assert (zero, one) == (cube([-2, 3, -4], 4), cube([-2, 3, 4], 4))
    assert Cube.full(1).split(1) == (cube([-1], 1), cube([1], 1))


def test_split_partitions_points():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 6)
        mask = rng.getrandbits(n)
        c = Cube(n, mask, rng.getrandbits(n) & mask)
        free = [v for v in range(1, n + 1) if not mask & (1 << (v - 1))]
        if not free:
            with pytest.raises(ValueError):
                c.split(rng.randint(1, n))
            continue
        var = rng.choice(free)
        zero, one = c.split(var)
        left, right, whole = (set(cube_points(x)) for x in (zero, one, c))
        assert left | right == whole
        assert not left & right


def test_nbhd_dir_examples():
    p1 = cube([-2, -3], 4)
    assert p1.nbhd_dir(2) == cube([2, -3], 4)
    assert p1.nbhd_dir(3) == cube([-2, 3], 4)
    assert p1.nbhd_dir(2).nbhd_dir(2) == p1


@pytest.mark.parametrize("var", [0, -2, 4])
@pytest.mark.parametrize("method", ["split", "nbhd_dir"])
def test_variable_outside_arity_is_named(method, var):
    # The range is checked before the variable's bit is built, so a
    # variable below 1 is named too, not reported as a negative shift.
    with pytest.raises(ValueError, match=f"variable x{var} outside cube arity 3"):
        getattr(cube([-1, 2], 3), method)(var)


def test_nbhd_dir_requires_literal_component():
    with pytest.raises(ValueError):
        cube([-2], 4).nbhd_dir(1)


def test_cube_nbhd_examples(vb_formula):
    p1 = cube([-2, -3], 4)
    assert cube_nbhd(p1, vb_formula.clause_by_id(1)) == \
        [cube([2, -3], 4), cube([-2, 3], 4)]
    assert cube_nbhd(cube([-2, 3], 4), Clause([-3])) == [cube([-2, -3], 4)]
    point_cube = tuple_cube((0, 1))
    assert cube_nbhd(point_cube, Clause([1])) == [tuple_cube((1, 1))]


def test_cube_nbhd_requires_falsifying_cube(vb_formula):
    with pytest.raises(ValueError):
        cube_nbhd(Cube.full(4), vb_formula.clause_by_id(1))


def test_cube_nbhd_equals_pointwise_union():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 6)
        clause = Clause(random_clause(n, rng))
        base = unsat_cube(clause, n)
        # Shrink the falsifying cube randomly so it still falsifies.
        extra = rng.getrandbits(n) & ~base.mask & rng.getrandbits(n)
        c = Cube(n, base.mask | extra, base.val | (extra & rng.getrandbits(n)))
        lifted = set()
        for nb in cube_nbhd(c, clause):
            lifted.update(cube_points(nb))
        pointwise = set()
        for p in cube_points(c):
            pointwise.update(point_nbhd(p, clause))
        assert lifted == pointwise


def reference_unreached(members):
    """unreached_neighbors by its definition: each neighbour cube of a
    member that passed, built with `nbhd_dir`, looked up among the
    members by Cube equality."""
    for cube, clause in members.items():
        if clause is None:
            continue
        for lit in clause.lits:
            neighbor = cube.nbhd_dir(abs(lit))
            if neighbor not in members:
                yield cube, clause.cid, neighbor


def random_members(rng):
    """A member dict as `checked_members` returns it, over n <= 10: points
    or clusters on a few shared masks, each member's clause falsified by
    it, about one in five failed (None). Many members are the flip of
    another on a pinned bit, so that lookups both hit and miss, and some
    are such a flip with one more pinned variable: the same value bits
    under another mask, which a key that drops the mask would confuse."""
    n = rng.randint(1, 10)
    full = (1 << n) - 1
    masks = [full] if rng.random() < 0.4 else \
        [rng.getrandbits(n) | 1 for _ in range(rng.randint(1, 3))]
    members = {}
    for _ in range(rng.randint(1, 40)):
        mask = rng.choice(masks) & full
        val = rng.getrandbits(n) & mask
        if members and rng.random() < 0.6:   # a flip of an earlier member
            base = rng.choice(list(members))
            mask, val = base.mask, base.val ^ (1 << rng.choice(
                [v for v in range(n) if base.mask >> v & 1]))
            free = full & ~mask
            if free and rng.random() < 0.3:
                mask |= free & -free
        fmask = mask & rng.getrandbits(n)
        lits = [-(v + 1) if val >> v & 1 else v + 1
                for v in range(n) if fmask >> v & 1]
        failed = rng.random() < 0.2
        members.setdefault(Cube(n, mask, val),
                           None if failed else Clause(lits, len(members) + 1))
    return members


def test_unreached_neighbors_matches_the_cube_reference():
    hits = misses = 0
    for seed in range(400):
        members = random_members(random.Random(seed))
        got = list(unreached_neighbors(members))
        want = list(reference_unreached(members))
        assert got == want, seed
        for (cube, _, neighbor), (ref_cube, _, ref_neighbor) in zip(got, want):
            assert cube is ref_cube
            assert hash(neighbor) == hash(ref_neighbor)
        misses += len(got)
        hits += sum(len(clause) for clause in members.values()
                    if clause is not None) - len(got)
    assert hits > 1000 and misses > 1000


def test_merge_trace_example():
    c2, c3 = Clause([1, -2], cid=2), Clause([-1, -2, 3], cid=3)
    merged, resolvent = merge(cube([-1, 2, -3], 4), cube([1, 2, -3], 4), 1, c2, c3)
    assert merged == cube([2, -3], 4)
    assert resolvent.lits == (-2, 3)


def test_merge_eight_variable_example():
    c1, c2 = Clause([1, 3, 7]), Clause([-1, 7])
    p1 = cube([-1, -3, 5, -7, 8], 8)
    p2 = cube([1, -3, 5, -7], 8)
    merged, resolvent = merge(p1, p2, 1, c1, c2)
    assert merged == cube([-3, 5, -7], 8)
    assert resolvent.lits == (3, 7)


def test_merge_unit_clash_covers_space():
    merged, resolvent = merge(cube([-1], 1), cube([1], 1), 1,
                              Clause([1]), Clause([-1]))
    assert merged == Cube.full(1)
    assert resolvent.lits == ()


def test_merge_inapplicable_returns_none():
    # Resolvent literal -2 is not falsified by the second cube.
    c6, c7 = Clause([-2, 3]), Clause([-3])
    assert merge(cube([2, -3], 4), cube([-2, 3], 4), 3, c6, c7) is None
    # Not resolvable at all.
    assert merge(cube([-1], 2), cube([1], 2), 1,
                 Clause([1, 2]), Clause([-1, -2])) is None


def test_merge_result_properties():
    # Random resolvable pairs plus random shrinking of the falsifying
    # cubes; the component-wise union must satisfy both merge conditions.
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randint(2, 6)
        pivot = rng.randint(1, n)
        others = [v for v in range(1, n + 1) if v != pivot]
        rng.shuffle(others)
        k = rng.randint(0, len(others))
        shared = [v if rng.random() < 0.5 else -v for v in others[:k]]
        c1, c2 = Clause([pivot] + shared), Clause([-pivot] + shared)

        def shrink(base):
            extra = rng.getrandbits(n) & ~base.mask
            return Cube(n, base.mask | extra, base.val | (extra & rng.getrandbits(n)))

        p1, p2 = shrink(unsat_cube(c1, n)), shrink(unsat_cube(c2, n))
        outcome = merge(p1, p2, pivot, c1, c2)
        assert outcome is not None
        merged, resolvent = outcome
        assert cube_contains(merged, p1)
        assert cube_contains(merged, p2)
        assert cube_falsifies(merged, resolvent)


def build_then_check_merge(p1, p2, pivot, c1, c2):
    """merge as it was before its precondition moved onto bits: build the
    resolvent, then test the four containments on Cube objects."""
    try:
        resolvent = resolve(c1, c2, pivot)
    except ValueError:
        return None
    if not (cube_falsifies(p1, c1) and cube_falsifies(p2, c2)):
        return None
    if not (cube_falsifies(p1, resolvent) and cube_falsifies(p2, resolvent)):
        return None
    mask = p1.mask & p2.mask & ~(p1.val ^ p2.val)
    return Cube(p1.n, mask, p1.val & mask), resolvent


def merge_case(rng):
    """Two clauses over n <= 8 variables with 0, 1 or 2 clashes, a pivot
    (the first clash, or any variable), and two cubes falsifying both
    clauses, one of them then loosened: a pinned variable freed or
    flipped."""
    n = rng.randint(2, 8)
    order = rng.sample(range(1, n + 1), n)
    clashes = rng.randint(0, 2)
    lits1, lits2 = [], []
    for v in order[:clashes]:
        lit = v if rng.random() < 0.5 else -v
        lits1.append(lit)
        lits2.append(-lit)
    for v in order[clashes:]:
        lit = v if rng.random() < 0.5 else -v
        role = int(rng.random() * 4)   # in neither, c1, c2 or both
        if role & 1:
            lits1.append(lit)
        if role & 2:
            lits2.append(lit)
    c1, c2 = Clause(lits1), Clause(lits2)
    pivot = order[0] if clashes and rng.random() < 0.9 else rng.randint(1, n)
    cubes = []
    for own in (c1, c2):
        # Pin both clauses' variables to their falsifying values, the pivot
        # to its own clause's, and some other variables at random.
        lits = {abs(l): -l for l in c1.lits + c2.lits}
        lits.update((abs(l), -l) for l in own.lits if abs(l) == pivot)
        for v in range(1, n + 1):
            if v not in lits and rng.random() < 0.3:
                lits[v] = v if rng.random() < 0.5 else -v
        cubes.append(Cube.from_literals(lits.values(), n))
    side = int(rng.random() * 3)   # loosen p1, p2 or neither
    if side < 2 and cubes[side].mask:
        pinned = [l for l in cubes[side].literals()]
        lit = pinned[int(rng.random() * len(pinned))]
        rest = [l for l in pinned if l != lit]
        if rng.random() < 0.5:
            rest.append(-lit)
        cubes[side] = Cube.from_literals(rest, n)
    return cubes[0], cubes[1], pivot, c1, c2


def test_merge_matches_build_then_check_merge():
    rng = random.Random(11)
    # Per case that clashes on the pivot alone: which of p1 in Unsat(c1),
    # p2 in Unsat(c2), p1 in Unsat(R), p2 in Unsat(R) fail, R the resolvent.
    failing = Counter()
    for _ in range(4000):
        p1, p2, pivot, c1, c2 = case = merge_case(rng)
        got, want = merge(*case), build_then_check_merge(*case)
        assert (got is None) == (want is None), case
        if got is not None:
            assert got[0] == want[0] and got[1].lits == want[1].lits, case
            # Both are built from bits unchecked: each must be what the
            # checked constructors make, down to the hash and the bits.
            assert hash(got[0]) == hash(want[0]), case
            assert (got[1].fmask, got[1].fval, got[1].cid) == \
                (want[1].fmask, want[1].fval, 0), case
        if resolvable_on(c1, c2) == pivot:
            r = resolve(c1, c2, pivot)
            failing[tuple(not cube_falsifies(p, c) for p, c in
                          ((p1, c1), (p2, c2), (p1, r), (p2, r)))] += 1
    assert failing[(False,) * 4] >= 100   # merges that happen
    for k in range(4):   # each condition failing alone
        assert failing[tuple(i == k for i in range(4))] >= 20, failing


def test_cube_contains_examples():
    assert cube_contains(cube([2, -3], 4), cube([-1, 2, -3], 4))
    assert not cube_contains(cube([-1], 1), cube([1], 1))
    c = cube([1, -4], 5)
    assert cube_contains(c, c)


def test_cube_text_forms():
    c = cube([-2, 4], 4)
    assert c.to_text() == "-2 4"
    assert prettify_payload(f"cube {c.to_text()} 0") == "cube ¬x2 x4"
    assert Cube.full(3).to_text() == ""
