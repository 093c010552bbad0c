"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
asserts it.  Every tolerance is exact: all arithmetic is integral.
"""

import random
import time
from itertools import permutations, product

from conftest import WORKED_HIVE_BOUNDARY, WORKED_HIVE_FLAG, WORKED_HIVE_LABELS, skew_pairs
from flagged_lr.burge import (
    insertion_decomposition,
    biword_from_matrix,
    biword_from_words,
    block_word,
    burge,
)
from flagged_lr.core import (
    all_flags,
    contains,
    longest_element,
    partitions_up_to,
    reduced_word,
    scale,
    sort_descending,
)
from flagged_lr.crystal import (
    character,
    coefficient_by_tableaux,
    decompose,
    epsilon_phi,
    generate_demazure,
    lowering,
    raising,
    string_property_witness,
    tableau_word_set,
)
from flagged_lr.hives import (
    SkewGTPattern,
    check_skew_hive,
    enumerate_skew_hive_points,
    enumerate_tri_hive_points,
    lift_tilde,
    psi,
    psi_inverse,
    skew_flat_region,
    skew_hive_contents,
    upsilon,
)
from flagged_lr.polynomials import (
    IntPolynomial,
    coefficient_table_by_demazure,
    demazure_Ti,
    demazure_Tw,
    expand_in_key,
    flagged_skew_schur,
    key_polynomial,
)
from flagged_lr.tableaux import (
    SkewShape,
    SkewTableau,
    dominant_tableau,
    enumerate_tableaux,
    reading_word,
    reading_word_and_weight,
    rectify,
    word_weight,
)
from oracles import permutation_act, schur, tensor_lowering, tensor_raising


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def grid_tuples(n, max_mu):
    """Criterion 2 grid: lam, gam inside mu, every weight-balanced nu."""
    for mu, gam in skew_pairs(n, max_mu):
        for lam in partitions_up_to(n, sum(mu)):
            if not contains(mu, lam):
                continue
            total = sum(lam) + sum(mu) - sum(gam)
            for phi in all_flags(n):
                for nu in partitions_up_to(n, total):
                    if sum(nu) == total:
                        yield lam, mu, gam, nu, phi


def test_criterion_1_worked_example_anchors():
    start = time.perf_counter()

    shape = SkewShape((4, 3, 2, 1), (2, 1, 0, 0))
    t_example = SkewTableau(shape, ((1, 2), (2, 3), (1, 3), (4,)))
    word, weight_vec = reading_word_and_weight(t_example)
    ok = word == (2, 1, 3, 2, 3, 1, 4) and weight_vec == (2, 2, 2, 1)

    pattern_example = SkewGTPattern(
        ((2, 1, 0, 0), (3, 2, 0, 0), (4, 3, 0, 0), (4, 3, 2, 0), (4, 3, 2, 1))
    )
    ok = ok and upsilon(pattern_example).rows == ((1, 2), (1, 2), (3, 3), (4,))

    lam, mu, gam, nu = WORKED_HIVE_BOUNDARY
    ok = ok and not check_skew_hive(WORKED_HIVE_LABELS, lam, mu, gam, nu, WORKED_HIVE_FLAG)
    contents = {(k, ij): c for k, ij, c in skew_hive_contents(WORKED_HIVE_LABELS)}
    ok = ok and all(c >= 0 for c in contents.values())
    ok = ok and all(
        contents[("NE", ij)] == 0 for ij in skew_flat_region(WORKED_HIVE_FLAG)
    )

    elapsed = time.perf_counter() - start
    report("criterion 1: worked-example anchors", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_three_way_agreement():
    start = time.perf_counter()
    checked = 0
    ok = True
    tables = {}
    for lam, mu, gam, nu, phi in grid_tuples(2, 4):
        key = (lam, mu, gam, phi)
        if key not in tables:
            tables[key] = coefficient_table_by_demazure(lam, mu, gam, phi)
        by_tableau = coefficient_by_tableaux(lam, mu, gam, nu, phi)
        by_hive = len(enumerate_skew_hive_points(lam, mu, gam, nu, phi))
        by_demazure = tables[key].get(nu, 0)
        if not by_tableau == by_hive == by_demazure:
            ok = False
            print("DISCREPANCY", lam, mu, gam, nu, phi, by_tableau, by_hive, by_demazure)
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: three-way agreement, n=2, |mu|<=4, all flags",
        ok and checked > 500 and elapsed < 120,
        f"{checked} tuples, {elapsed:.1f}s",
    )


def test_criterion_3_classical_reduction():
    ok = True
    checked = 0
    for n in (1, 2, 3):
        full_flag = (n,) * n
        zero = (0,) * n
        for lam in partitions_up_to(n, 6):
            for mu in partitions_up_to(n, 6 - sum(lam)):
                total = sum(lam) + sum(mu)
                for nu in partitions_up_to(n, total):
                    if sum(nu) != total:
                        continue
                    flagged = coefficient_by_tableaux(lam, mu, zero, nu, full_flag)
                    classical = len(enumerate_tri_hive_points(lam, mu, nu, full_flag))
                    if flagged != classical:
                        ok = False
                        print("CLASSICAL MISMATCH", lam, mu, nu, flagged, classical)
                    checked += 1
    spot = len(enumerate_tri_hive_points((2, 1, 0), (2, 1, 0), (3, 2, 1), (3,) * 3))
    ok = ok and spot == 2
    ok = (
        ok
        and coefficient_by_tableaux(
            (2, 1, 0), (2, 1, 0), (0, 0, 0), (3, 2, 1), (3, 3, 3)
        )
        == 2
    )
    report(
        "criterion 3: classical LR reduction, |lam|+|mu|<=6, n<=3",
        ok,
        f"{checked} triples, spot value {spot}",
    )


def test_criterion_4_demazure_machinery():
    ok = True
    rng = random.Random(20250808)
    for n in (2, 3, 4):
        w0 = longest_element(n)
        alphas = [
            a for a in product(range(7), repeat=n) if sum(a) <= 6
        ]
        for alpha in alphas:
            kappa = key_polynomial(alpha)
            if demazure_Tw(kappa, w0) != schur(sort_descending(alpha), n):
                ok = False
                print("SYMMETRIZATION FAIL", alpha)
            if expand_in_key(kappa) != {alpha: 1}:
                ok = False
                print("KEY EXPANSION FAIL", alpha)
        for _ in range(8):
            terms = {
                tuple(rng.randint(0, 3) for _ in range(n)): rng.randint(-3, 3)
                for _ in range(5)
            }
            f = IntPolynomial(n, terms)
            for i in range(1, n):
                ti = demazure_Ti(f, i)
                if demazure_Ti(ti, i) != ti:
                    ok = False
                    print("IDEMPOTENCE FAIL", terms, i)
            for i in range(1, n - 1):
                lhs = demazure_Ti(demazure_Ti(demazure_Ti(f, i), i + 1), i)
                rhs = demazure_Ti(demazure_Ti(demazure_Ti(f, i + 1), i), i + 1)
                if lhs != rhs:
                    ok = False
                    print("BRAID FAIL", terms, i)
    report("criterion 4: Demazure operator identities, |alpha|<=6, n<=4", ok)


def test_criterion_5_crystal_identities():
    start = time.perf_counter()
    ok = True
    n = 4
    for length in range(0, 9):
        for w in product(range(1, n + 1), repeat=length):
            wt = word_weight(w, n)
            for i in range(1, n):
                down = lowering(w, i)
                if down != tensor_lowering(w, i):
                    ok = False
                    print("LOWERING MISMATCH", w, i)
                up = raising(w, i)
                if up != tensor_raising(w, i):
                    ok = False
                    print("RAISING MISMATCH", w, i)
                eps, phi = epsilon_phi(w, i)
                if phi - eps != wt[i - 1] - wt[i]:
                    ok = False
                    print("AXIOM FAIL phi-eps", w, i)
                if up is not None and lowering(up, i) != w:
                    ok = False
                    print("AXIOM FAIL inverse", w, i)
                if down is not None and raising(down, i) != w:
                    ok = False
                    print("AXIOM FAIL inverse", w, i)
    census_time = time.perf_counter() - start

    for lam in partitions_up_to(3, 4):
        b = reading_word(dominant_tableau(lam))
        for w in permutations((1, 2, 3)):
            ch = character(generate_demazure(b, reduced_word(w), 3), 3)
            if ch != key_polynomial(permutation_act(w, lam)):
                ok = False
                print("DEMAZURE CHARACTER FAIL", lam, w)
    report(
        "criterion 5: crystal axioms + signature equivalence + characters",
        ok,
        f"word census {census_time:.1f}s",
    )


def test_criterion_6_demazure_decomposition():
    ok = True
    decomposed = 0
    for n in (2, 3):
        for mu, gam in skew_pairs(n, 5):
            for phi in all_flags(n):
                words = tableau_word_set(mu, gam, phi)
                if string_property_witness(words, n) is not None:
                    ok = False
                    print("STRING PROPERTY FAIL", mu, gam, phi)
                    continue
                comps = decompose(words, n)
                char_sum = sum(
                    (key_polynomial(c.key_weight) for c in comps),
                    start=IntPolynomial.zero(max(n, 1)),
                )
                if char_sum != flagged_skew_schur(mu, gam, phi):
                    ok = False
                    print("CHARACTER SUM FAIL", mu, gam, phi)
                decomposed += 1

    counterexample = tableau_word_set((3, 2, 0), (1, 0, 0), (3, 2, 3))
    witness = string_property_witness(counterexample, 3)
    ok = ok and witness is not None
    report(
        "criterion 6: Demazure decomposition, n<=3, |mu|<=5",
        ok,
        f"{decomposed} decompositions; non-monotone bounds counterexample witness {witness}",
    )


def test_criterion_7_psi_isomorphism():
    ok = True
    checked = 0
    for lam, mu, gam, nu, phi in grid_tuples(2, 4):
        if not contains(nu, lam):
            continue
        skew = enumerate_skew_hive_points(lam, mu, gam, nu, phi)
        lam_t, mu_t, nu_t, phi_t = lift_tilde(lam, mu, gam, nu, phi)
        tri = enumerate_tri_hive_points(lam_t, mu_t, nu_t, phi_t)
        if len(skew) != len(tri):
            ok = False
            print("COUNT MISMATCH", lam, mu, gam, nu, phi, len(skew), len(tri))
        if any(psi_inverse(psi(h)) != h for h in skew):
            ok = False
            print("ROUNDTRIP FAIL", lam, mu, gam, nu, phi)
        if {psi(h).rows for h in skew} != {t.rows for t in tri}:
            ok = False
            print("IMAGE MISMATCH", lam, mu, gam, nu, phi)
        checked += 1
    report(
        "criterion 7: skew hive to Kogan face isomorphism",
        ok and checked > 400,
        f"{checked} tuples",
    )


def test_criterion_8_saturation():
    ok = True
    checked = 0
    for lam, mu, gam, nu, phi in grid_tuples(2, 4):
        values = [
            len(
                enumerate_skew_hive_points(
                    scale(k, lam), scale(k, mu), scale(k, gam), scale(k, nu), phi
                )
            )
            for k in (1, 2, 3)
        ]
        positive = [v > 0 for v in values]
        if any(positive) != positive[0]:
            ok = False
            print("SATURATION FAIL", lam, mu, gam, nu, phi, values)
        if positive[0] and not all(positive):
            ok = False
            print("DILATION FAIL", lam, mu, gam, nu, phi, values)
        checked += 1
    report(
        "criterion 8: saturation and dilation, k<=3",
        ok and checked > 400,
        f"{checked} tuples",
    )


def test_criterion_9_insertion_gates():
    ok = True

    symmetry_checked = 0
    for r in (1, 2, 3):
        for c in (1, 2, 3):
            for vals in product(range(3), repeat=r * c):
                m = [tuple(vals[i * c : (i + 1) * c]) for i in range(r)]
                p, q = burge(biword_from_matrix(m))
                mt = [tuple(col) for col in zip(*m)]
                pt, qt = burge(biword_from_matrix(mt))
                if (pt.rows, qt.rows) != (q.rows, p.rows):
                    ok = False
                    print("SYMMETRY FAIL", m)
                symmetry_checked += 1

    rect_checked = 0
    for mu, gam in skew_pairs(3, 6):
        shape = SkewShape(mu, gam)
        rho = tuple(a - b for a, b in zip(mu, gam))
        for t in enumerate_tableaux(shape, (3, 3, 3)):
            bw = biword_from_words(
                block_word(rho), tuple(reversed(reading_word(t)))
            )
            p, _ = burge(bw)
            expected = tuple(r for r in rectify(t).rows if r) or ((),)
            if p.rows != expected:
                ok = False
                print("RECTIFICATION FAIL", mu, gam, t.rows)
            rect_checked += 1

    classes_checked = 0
    for mu, gam in skew_pairs(2, 5):
        for phi in all_flags(2):
            classes = insertion_decomposition(mu, gam, phi)
            comps = decompose(tableau_word_set(mu, gam, phi), 2)
            blocks = {
                frozenset(reading_word(t) for t in cls.members): cls
                for cls in classes
            }
            if len(blocks) != len(comps):
                ok = False
                print("CLASS COUNT FAIL", mu, gam, phi)
                continue
            for comp in comps:
                cls = blocks.get(comp.members)
                if cls is None or sort_descending(cls.beta) != comp.highest_weight:
                    ok = False
                    print("CLASS MATCH FAIL", mu, gam, phi, comp.head)
            classes_checked += 1

    report(
        "criterion 9: Burge symmetry, rectification identity, class match",
        ok,
        f"{symmetry_checked} matrices, {rect_checked} tableaux, "
        f"{classes_checked} decompositions",
    )
