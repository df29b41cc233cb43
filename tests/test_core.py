import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesat.core import (Clause, CnfFormula, cube_row, cycle_text,
                            parse_cycles, point_row, resolvable_on, resolve,
                            row_bits, row_masks)
from stablesat.cubes import Cube
from conftest import (evaluate_clause, find_clause, point_bits, point_nbhd,
                      random_clause, traced_peak)


def test_clause_canonical_order_and_dedup():
    c = Clause([4, -2, 4])
    assert c.lits == (-2, 4)
    assert Clause([-2, 4]) == c
    assert hash(Clause([4, -2])) == hash(c)


# A literal list with duplicates and no tautology: variables drawn with
# repeats, each given the polarity its variable has in `signs`.
_LITERAL_LISTS = st.builds(
    lambda variables, signs: [v if signs[v - 1] else -v for v in variables],
    st.lists(st.integers(1, 9), max_size=12),
    st.lists(st.booleans(), min_size=9, max_size=9))


@settings(max_examples=300, deadline=None)
@given(_LITERAL_LISTS, _LITERAL_LISTS, st.randoms(use_true_random=False))
def test_clause_bits_agree_with_the_literal_set(lits, other, rng):
    # Clause stores its bits; every literal-level reading must equal the
    # definition on the literal set, whatever the order and duplicates.
    clause = Clause(lits)
    shuffled = lits * 2
    rng.shuffle(shuffled)
    assert clause.lits == tuple(sorted(set(lits), key=abs))
    assert len(clause) == len(set(lits))
    assert clause.max_var() == max(map(abs, lits), default=0)
    assert Clause(shuffled) == clause and hash(Clause(shuffled)) == hash(clause)
    assert (Clause(other) == clause) == (set(other) == set(lits))
    assert list(clause) == list(clause.lits)


def test_tautology_rejected():
    with pytest.raises(ValueError):
        Clause([1, -1])
    with pytest.raises(ValueError):
        CnfFormula(2, [[1, 2], [2, -2]])


def test_empty_clause_is_always_falsified():
    empty = Clause([])
    for point in [(0,), (1,), (0, 1, 0)]:
        assert not evaluate_clause(empty, point)


def test_a_huge_literal_is_refused_before_it_becomes_a_clause():
    # Each literal is a shift count of the codec, so a formula bounds a
    # literal list before it builds the Clause; the message is the one a
    # built Clause over the same literals gets.
    for build, shown in (
            (lambda: CnfFormula(2, [[4 * 10 ** 7]]), "40000000"),
            (lambda: CnfFormula(2).learn([-4 * 10 ** 7, 1, 1]), "1 -40000000")):
        refusal, peak = traced_peak(build)
        assert str(refusal) == (f"clause Clause({shown}, id=0) uses a "
                                "variable above num_vars=2")
        assert peak < 2 ** 20
    for lits in ([3, 1, 3], Clause([1, 3])):
        with pytest.raises(ValueError) as refusal:
            CnfFormula(2, [lits])
        assert str(refusal.value) == \
            "clause Clause(1 3, id=0) uses a variable above num_vars=2"


def test_formula_ids_stable_across_learning():
    f = CnfFormula(3, [[1, 2], [-1, 3]])
    assert [c.cid for c in f.clauses] == [1, 2]
    learned, created = f.learn([2, 3])
    assert created and learned.cid == 3
    again, created = f.learn([3, 2])
    assert not created and again.cid == 3
    assert [c.cid for c in f.clauses[2:]] == [3]
    # A learned clause over a variable above num_vars is refused, and
    # nothing is added.
    with pytest.raises(ValueError):
        f.learn([4])
    assert [c.cid for c in f.clauses] == [1, 2, 3]
    assert find_clause(f, [2, 3]) is learned


def occurrence_filter(formula):
    """Per literal slot 2(v-1)+b, the clauses holding the literal x_v = b
    falsifies, filtered from the clause list."""
    return [[c for c in formula.clauses if (-v if b else v) in c.lits]
            for v in range(1, formula.num_vars + 1) for b in (0, 1)]


def test_occurrence_lists_follow_the_clause_list():
    f = CnfFormula(3, [[1, 2], [-1, 3], [], [2, -3], [-1, -2, -3]])
    assert f.occurs == occurrence_filter(f)
    assert f.occurs[0] == [f.clauses[0]] and f.occurs[1] == [f.clauses[1],
                                                             f.clauses[4]]
    f.learn([2, 3])
    assert f.occurs == occurrence_filter(f)
    before = [list(occ) for occ in f.occurs]
    _, created = f.learn([3, 2])
    assert not created and f.occurs == before
    dup = f.copy()
    dup.learn([-2, 1])
    assert dup.occurs == occurrence_filter(dup)
    assert f.occurs == before == occurrence_filter(f)
    assert len(dup.occurs[3]) == len(f.occurs[3]) + 1   # x2 = 1 falsifies -2


def test_occurrence_index_is_built_at_its_first_read():
    # A formula that is never searched holds no per-variable list: one
    # declaring 10^7 variables, and its copy, cost a few hundred bytes.
    huge, peak = traced_peak(
        lambda: CnfFormula(10 ** 7, [[1], [-2, 3]]).copy())
    assert peak < 2 ** 16 and huge._occurs is None
    # Learned in a copy before the first read, the index still follows
    # the clause list, and the original builds none.
    f = CnfFormula(3, [[1], [-2, 3]])
    dup = f.copy()
    dup.learn([2])
    assert dup.meeting_bits(0b10, 0b10) == 0b011
    assert dup.occurs == occurrence_filter(dup) and f._occurs is None


def test_occurrence_lists_of_random_formulas():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 8)
        f = CnfFormula(n, [random_clause(n, rng) for _ in range(rng.randint(0, 12))])
        copy = f.copy()
        for _ in range(5):
            copy.learn(random_clause(n, rng))
        assert f.occurs == occurrence_filter(f)
        assert copy.occurs == occurrence_filter(copy)


def occurrence_ids(formula):
    """Per literal slot, the ids of its occurrence list as a bitset."""
    return [sum(1 << (c.cid - 1) for c in occ) for occ in formula.occurs]


def meeting_scan(formula, mask, val):
    """The clauses that no pin of the cube (mask, val) satisfies, as a
    bitset over list positions."""
    return sum(1 << i for i, c in enumerate(formula.clauses)
               if not any(
                   mask >> (abs(l) - 1) & 1 and
                   (val >> (abs(l) - 1) & 1) == (l > 0) for l in c.lits))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
def test_occurrence_bitsets_follow_the_lists(n, seed):
    # occ_bits[s] holds exactly the ids of occurs[s], each id the clause's
    # list position, after random learns, in a copy, and in its original.
    rng = random.Random(seed)
    f = CnfFormula(n, [random_clause(n, rng)
                       for _ in range(rng.randint(0, 10))])
    copies = [f]
    for _ in range(rng.randint(1, 12)):
        formula = rng.choice(copies)
        if rng.random() < 0.3:
            copies.append(formula.copy())
        else:
            formula.learn(random_clause(n, rng))
    for formula in copies:
        assert [c.cid for c in formula.clauses] == \
            list(range(1, len(formula.clauses) + 1))
        assert formula.occurs == occurrence_filter(formula)
        assert formula.occ_bits == occurrence_ids(formula)
        for _ in range(5):
            mask = rng.getrandbits(n)
            val = rng.getrandbits(n) & mask
            bits = formula.meeting_bits(mask, val)
            assert bits == meeting_scan(formula, mask, val)
            assert list(formula.clauses_of(bits)) == \
                [c for c in formula.clauses if bits >> (c.cid - 1) & 1]


def test_learning_through_a_copy_leaves_the_original_alone():
    f = CnfFormula(3, [[1, 2], [-1, 3]])
    f.learn([-2, -3])
    clauses = list(f.clauses)
    ids = [c.cid for c in f.clauses]
    occurs = [list(occ) for occ in f.occurs]
    occ_bits = list(f.occ_bits)
    dup = f.copy()
    resolvent = resolve(dup.clauses[0], dup.clauses[1], 1)
    learned, created = dup.learn(resolvent)
    assert created and learned is resolvent and learned.cid == 4
    # A clause the original holds is registered in the copy as a new
    # Clause, so its id in the original stays.
    other = CnfFormula(3, [[-2], [1, 2]])
    again, created = other.learn(f.clauses[2])
    assert created and again is not f.clauses[2] and again.cid == 3
    dup.learn([-3])
    assert f.clauses == clauses and all(
        a is b for a, b in zip(f.clauses, clauses))
    assert [c.cid for c in f.clauses] == ids == [1, 2, 3]
    assert f.occurs == occurs and f.occ_bits == occ_bits
    assert find_clause(f, [-2, -3]).cid == 3
    assert find_clause(f, [2, 3]) is None and find_clause(f, [-3]) is None
    assert dup.occ_bits == occurrence_ids(dup)


def test_a_refused_clause_keeps_no_id():
    f = CnfFormula(2, [[1, 2]])
    clause = Clause([1, 3])
    with pytest.raises(ValueError):
        f.learn(clause)
    assert clause.cid == 0 and len(f.clauses) == 1
    assert f.occ_bits == occurrence_ids(f)


def test_formula_rejects_out_of_range_variable():
    with pytest.raises(ValueError):
        CnfFormula(2, [[1, 3]])


def test_evaluate_clause_paper_example():
    c = Clause([1, -3, 4])
    assert not evaluate_clause(c, (0, 1, 1, 0))
    assert evaluate_clause(c, (1, 1, 1, 0))


def test_evaluate_clause_chain_start(chain6_formula):
    c1 = chain6_formula.clause_by_id(1)
    assert c1.lits == (1, 2)
    assert not evaluate_clause(c1, (0, 0, 0, 0, 0, 0))
    assert not evaluate_clause(Clause([2, 3]), (0, 0, 0, 0, 0, 0))
    assert not evaluate_clause(chain6_formula.clause_by_id(2), (0, 1, 0, 0, 0, 0))


def test_evaluate_arity_mismatch():
    with pytest.raises(ValueError):
        evaluate_clause(Clause([3]), (0, 1))


def _falsified_at(formula, point):
    """CnfFormula.falsified of a point: every variable pinned."""
    return formula.falsified((1 << len(point)) - 1, point_bits(point))


def test_falsified_clauses_chain_top(chain6_formula):
    falsified = _falsified_at(chain6_formula, (1, 1, 1, 1, 1, 1))
    assert [c.cid for c in falsified] == [7]


def test_falsified_clauses_satisfying_point():
    f = CnfFormula(1, [[1]])
    assert _falsified_at(f, (1,)) == []


def test_falsified_clauses_vb_origin(vb_formula):
    falsified = _falsified_at(vb_formula, (0, 0, 0, 0))
    assert [c.cid for c in falsified] == [1]
    # The cube x2 = x3 = 0 lies inside only Unsat(x2 | x3).
    assert _falsified_at(vb_formula, (0, 0, 0, 0)) == \
        vb_formula.falsified(0b0110, 0)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
def test_point_row_codec(n):
    rng = random.Random(n)
    for _ in range(20):
        bits = rng.getrandbits(n)
        row = point_row(bits, n)
        # x1 first
        assert row == "".join(str(bits >> i & 1) for i in range(n))
        assert row_bits(row, n) == bits

    def put(ch, at):
        """The row with the character at `at` replaced; ch alone for n = 0."""
        return row[:at] + ch + row[at + 1:] if n else ch
    # int(text[::-1], 2) alone would read a sign or whitespace at the
    # row's end, and an underscore between digits.
    bad = [put("-", 0), put("+", n - 1), put("_", n // 2), put(" ", n // 2),
           put("\t", n - 1), row + "0"] + ([row[:-1]] if n else [])
    for text in bad:
        with pytest.raises(ValueError) as refusal:
            row_bits(text, n)
        assert str(refusal.value) == \
            f"{text!r} is not a 0/1 string of {n} variables"


@st.composite
def _cubes(draw):
    n = draw(st.integers(0, 70))
    mask = draw(st.integers(0, (1 << n) - 1))
    return Cube(n, mask, draw(st.integers(0, (1 << n) - 1)) & mask)


@settings(max_examples=300, deadline=None)
@given(_cubes())
def test_cube_row_codec_round_trips(cube):
    n = cube.n
    row = cube_row(cube.mask, cube.val, n)
    # x1 first, `-` for a free variable
    assert row == "".join(str(cube.val >> i & 1) if cube.mask >> i & 1
                          else "-" for i in range(n))
    assert Cube(n, *row_masks(row, n)) == cube


def test_cube_row_examples():
    assert cube_row(0b110, 0b100, 3) == "-01"
    assert row_masks("-01", 3) == (0b110, 0b100)
    assert cube_row(0, 0, 0) == "" and row_masks("", 0) == (0, 0)


@pytest.mark.parametrize("row", ["0-", "-0-0", "", "0-2", "+-0",
                                 "-_0", "- 0", "0٣-", "１-0", "-0\n"])
def test_cube_row_codec_refuses_all_but_n_ternary_digits(row):
    # The one message for a wrong length and for any character but -, 0
    # and 1, also those int() reads inside a binary number.
    with pytest.raises(ValueError) as refusal:
        row_masks(row, 3)
    assert str(refusal.value) == f"{row!r} is not a 0/1/- string of 3 variables"


def test_resolvable_on_single_clash():
    c2 = Clause([1, -2])
    c3 = Clause([-1, -2, 3])
    assert resolvable_on(c2, c3) == 1


def test_resolvable_on_no_clash_or_double():
    assert resolvable_on(Clause([1, 2]), Clause([1, 2])) is None
    assert resolvable_on(Clause([1, 2]), Clause([-1, -2])) is None


def test_resolvable_on_matches_literal_sets():
    def reference(c1, c2):
        lit_of = {abs(l): l for l in c1.lits}
        clashes = [abs(l) for l in c2.lits if lit_of.get(abs(l)) == -l]
        return clashes[0] if len(clashes) == 1 else None

    def random_clause(n):
        variables = rng.sample(range(1, n + 1), rng.randint(0, n))
        return Clause(v if rng.random() < 0.5 else -v for v in variables)

    rng = random.Random(81)
    pivots = 0
    for _ in range(500):
        n = rng.randint(1, 8)
        c1, c2 = random_clause(n), random_clause(n)
        assert resolvable_on(c1, c2) == reference(c1, c2), (c1, c2)
        pivots += reference(c1, c2) is not None
    assert 50 < pivots < 450   # both answers are drawn often


def test_clause_from_unsat_matches_the_literal_form():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 8)
        clause = Clause(random_clause(n, rng, rng.randint(1, n))
                        if rng.random() < 0.9 else [])
        built = Clause.from_unsat(clause.fmask, clause.fval)
        assert built == clause and hash(built) == hash(clause)
        assert (built.lits, built.fmask, built.fval, built.cid) == \
            (clause.lits, clause.fmask, clause.fval, 0)
    with pytest.raises(ValueError, match="outside the clause variables"):
        Clause.from_unsat(0b01, 0b10)


def test_resolve_worked_examples():
    assert resolve(Clause([1, -2]), Clause([-1, -2, 3]), 1).lits == (-2, 3)
    assert resolve(Clause([-3, 4]), Clause([-3, -4]), 4).lits == (-3,)
    assert resolve(Clause([1]), Clause([-1]), 1).lits == ()


def test_resolve_wrong_pivot_rejected():
    with pytest.raises(ValueError):
        resolve(Clause([1, -2]), Clause([-1, -2, 3]), 2)


def test_point_nbhd_paper_example():
    c = Clause([1, -3, 4])
    neighbors = point_nbhd((0, 1, 1, 0), c)
    assert set(neighbors) == {(1, 1, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1)}


def test_point_nbhd_unit_clause():
    assert point_nbhd((0, 0), Clause([1])) == [(1, 0)]


def test_point_nbhd_chain_example():
    c2 = Clause([-2, 3])
    neighbors = point_nbhd((0, 1, 0, 0, 1, 1), c2)
    assert set(neighbors) == {(0, 0, 0, 0, 1, 1), (0, 1, 1, 0, 1, 1)}


def test_point_nbhd_requires_falsifying_point():
    with pytest.raises(ValueError):
        point_nbhd((1, 0), Clause([1]))


def test_point_nbhd_size_and_distance_property():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 10)
        width = rng.randint(1, n)
        variables = rng.sample(range(1, n + 1), width)
        lits = [v if rng.random() < 0.5 else -v for v in variables]
        clause = Clause(lits)
        # Build the unique falsifying restriction, free vars random.
        point = [rng.randint(0, 1) for _ in range(n)]
        for lit in lits:
            point[abs(lit) - 1] = 0 if lit > 0 else 1
        point = tuple(point)
        neighbors = point_nbhd(point, clause)
        assert len(neighbors) == len(clause.lits)
        for neighbor in neighbors:
            assert evaluate_clause(clause, neighbor)
            assert sum(a != b for a, b in zip(point, neighbor)) == 1


def test_resolve_symmetric_in_arguments():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(2, 8)
        pivot = rng.randint(1, n)
        rest = [v for v in range(1, n + 1) if v != pivot]
        rng.shuffle(rest)
        k1, k2 = rng.randint(0, len(rest) // 2), rng.randint(0, len(rest) // 2)
        shared = {v: rng.choice((v, -v)) for v in rest}
        c1 = Clause([pivot] + [shared[v] for v in rest[:k1]])
        c2 = Clause([-pivot] + [shared[v] for v in rest[:k2]])
        assert resolve(c1, c2, pivot) == resolve(c2, c1, pivot)


def test_parse_cycles_and_cycle_text():
    assert parse_cycles("(1 4)(2 5)(3 6)") == [[1, 4], [2, 5], [3, 6]]
    assert parse_cycles(" ( 1, 4 ) (2) ") == [[1, 4], [2]]
    assert parse_cycles("()") == []
    assert cycle_text([[1, 4], [2, 5]]) == "(1 4)(2 5)"
    assert cycle_text([]) == "()"
    for text in ("", "1 4)(", "(1 4", "(1 -4)", "(a)", "(1)(2)x"):
        with pytest.raises(ValueError):
            parse_cycles(text)


@pytest.mark.parametrize("text", ["(١ ２)", "(1 ٢)", "(1\u00a02)"])
def test_parse_cycles_reads_ascii_only(text):
    # A Unicode \d or \s would pass these, and int() reads the digits.
    with pytest.raises(ValueError, match="bad cycle notation"):
        parse_cycles(text)


def test_parse_cycles_refuses_a_long_bad_line_at_once():
    # With an ambiguous pattern (whitespace matched on either side of a
    # cycle) a regex search backtracks exponentially in the number of
    # gaps; ten gaps took about 4 s.
    with pytest.raises(ValueError, match="bad cycle notation"):
        parse_cycles("()" + "    ()" * 40 + " x")
