"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time
from itertools import product

import numpy as np
import pytest

from latwav.cascade import cascade_step, initial_grid, run_cascade, translate_gram
from latwav.encode import (
    EncodingParams,
    additivity_holds,
    encode_index,
    encode_support,
    flatten_point,
    radix_encode,
)
from latwav.filters import (
    antidiagonal_matrix,
    companion_3d_matrix,
    daubechies4_1d,
    dilation_1d,
    haar_1d,
    quincunx_daubechies4,
    quincunx_haar,
    quincunx_matrix,
)
from latwav.intlat import in_dilated_lattice_exact, smith_normal_form
from latwav.lawton import SupportSet, build_reduced_system, lawton_residuals
from latwav.quincunx import shannon_coeff, support_pattern, sublattice_premise
from latwav.transfer import from_one_d, to_one_d, transfer, verify_isomorphism
from latwav.verify import qmf_check
from util import enumerate_windows, random_dyadic_matrices

BUNDLED = (haar_1d, daubechies4_1d, quincunx_haar, quincunx_daubechies4)


def report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status} - {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


@pytest.fixture(scope="module")
def dyadic_matrices():
    rng = np.random.default_rng(20240817)
    out = []
    for dim, count in ((1, 8), (2, 64), (3, 64), (4, 64)):
        out.extend(random_dyadic_matrices(rng, dim, count))
    assert len(out) == 200
    return out


def test_criterion_1_snf_suite(dyadic_matrices):
    ok = True
    detail = ""
    for m in dyadic_matrices:
        snf = smith_normal_form(m)
        d = m.dim
        exact = (
            snf.product() == m
            and snf.U.det() in (1, -1)
            and snf.V.det() in (1, -1)
            and all(
                snf.D.rows[i][j] == ((2 if i == d - 1 else 1) if i == j else 0)
                for i in range(d)
                for j in range(d)
            )
        )
        if not exact:
            ok = False
            detail = f"failed for {m.rows}"
            break
    report(1, "SNF of 200 random dyadic matrices is exact with D = diag(1,..,1,2)", ok, detail)


def test_criterion_2_partition_and_chart(dyadic_matrices):
    rnd = random.Random(5)
    ok = True
    detail = ""
    for m in dyadic_matrices:
        d = m.dim
        snf = smith_normal_form(m)
        u_inv = snf.U.unimodular_inverse()
        rep = tuple(snf.U.rows[i][d - 1] for i in range(d))
        adj = m.adjugate()
        big = max(max(abs(x) for x in row) for row in u_inv.rows + adj.rows)
        pts = np.array(list(product(range(-8, 9), repeat=d)), dtype=np.int64)
        if big < 1 << 40:
            # route 1: A x = p solvable over Z  <=>  adj(A) p == 0 mod det (+-2)
            member = ((pts @ np.array(adj.rows, dtype=np.int64).T) % 2 == 0).all(axis=1)
            # route 2: last adapted coordinate even
            last = pts @ np.array(u_inv.rows[-1], dtype=np.int64)
            chart = (last % 2) == 0
            shifted = ((pts - np.array(rep, dtype=np.int64))
                       @ np.array(adj.rows, dtype=np.int64).T) % 2 == 0
            member_shift = shifted.all(axis=1)
        else:  # exact fallback, no word-size assumption
            member = np.array([
                all(x % 2 == 0 for x in adj.vec(tuple(p))) for p in pts.tolist()
            ])
            chart = np.array([
                u_inv.vec(tuple(p))[-1] % 2 == 0 for p in pts.tolist()
            ])
            member_shift = np.array([
                all(x % 2 == 0 for x in adj.vec(tuple(a - b for a, b in zip(p, rep))))
                for p in pts.tolist()
            ])
        if not bool(np.all(member == chart)):
            ok, detail = False, f"chart property failed for {m.rows}"
            break
        if not bool(np.all(member ^ member_shift)):
            ok, detail = False, f"partition failed for {m.rows}"
            break
        for _ in range(20):  # tie the scalar API to the bulk computation
            idx = rnd.randrange(len(pts))
            p = tuple(int(c) for c in pts[idx])
            if in_dilated_lattice_exact(m, u_inv, p) != bool(member[idx]):
                ok, detail = False, f"scalar API disagrees at {p} for {m.rows}"
                break
        if not ok:
            break
    report(2, "partition by the coset representative and parity chart on [-8,8]^d", ok, detail)


def test_criterion_3_encoding_suite():
    start = time.monotonic()
    ok = True
    detail = ""

    def rightmost(p):
        for c in reversed(p):
            if c:
                return c
        return 0

    for d in (1, 2, 3):
        for n_exp in (1, 2):
            params = EncodingParams(d, n_exp)
            w = 1 << n_exp
            seen = {}
            for p in product(range(1 - w, w), repeat=d):
                v = radix_encode(params, p)
                if v in seen or (v > 0) != (rightmost(p) > 0) or (v < 0) != (rightmost(p) < 0):
                    ok, detail = False, f"radix failure at d={d} N={n_exp} p={p}"
                seen[v] = p
            if d >= 2:
                flat = [flatten_point(params, p) for p in product(range(1 - w, w), repeat=d)]
                if len(flat) != len(set(flat)):
                    ok, detail = False, f"flatten not injective at d={d} N={n_exp}"

    rnd = random.Random(99)
    for _ in range(10_000):
        d = rnd.choice((2, 3))
        n_exp = rnd.choice((1, 2))
        params = EncodingParams(d, n_exp)
        sub = EncodingParams(d - 1, n_exp)
        x = tuple(rnd.randint(-40, 40) for _ in range(d - 1))
        z = tuple(rnd.randint(-40, 40) for _ in range(d - 1))
        y, j = rnd.randint(-40, 40), rnd.randint(-40, 40)
        base = flatten_point(params, x + (y,))
        ident_a = flatten_point(params, tuple(a + b for a, b in zip(x, z)) + (y,)) - base \
            == 2 * radix_encode(sub, z)
        ident_b = flatten_point(params, x + (y + 2 * j,)) - base == j * params.row_stride
        step = flatten_point(params, x + (y + 1,)) - base
        ident_c = step == (1 if y % 2 == 0 else params.row_stride - 1)
        if not (ident_a and ident_b and ident_c):
            ok, detail = False, f"shift identity failed at d={d} N={n_exp} x={x} y={y}"
            break

    if ok:
        for d in (1, 2, 3):
            for n_exp in (1, 2):
                params = EncodingParams(d, n_exp)
                win = enumerate_windows(params)
                for n in win.support_points:
                    for k in win.index_points:
                        if not additivity_holds(params, n, k):
                            ok, detail = False, f"additivity failed d={d} N={n_exp} n={n} k={k}"

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(3, "radix/flatten injectivity, sign law, shift identities, additivity",
           ok, detail or f"{elapsed:.1f}s")


def test_criterion_4_index_set_suite():
    ok = True
    detail = ""
    for n_exp in (1, 2):
        params = EncodingParams(2, n_exp)
        w = 1 << n_exp
        support = set(product(range(w), repeat=2))
        diffs = {tuple(b - a for a, b in zip(p, q)) for p in support for q in support}
        generators = {k for k in diffs if k[-1] % 2 == 0}
        window = enumerate_windows(params)
        e_set = set(window.index_points)

        def pair_set(k):
            return frozenset(
                (n, tuple(a + b for a, b in zip(n, k)))
                for n in support
                if tuple(a + b for a, b in zip(n, k)) in support
            )

        cond_a = all(k in generators for k in e_set)
        listed = sorted(e_set)
        cond_b = True
        for i, k1 in enumerate(listed):
            for k2 in listed[i + 1:]:
                s1, s2 = pair_set(k1), pair_set(k2)
                if s1 == s2 or s1 == frozenset((b, a) for a, b in s2):
                    cond_b = False
        cond_c = all(
            k in e_set or tuple(-c for c in k) in e_set for k in generators
        )
        if not (cond_a and cond_b and cond_c):
            ok, detail = False, f"index window conditions failed at N={n_exp}"
            break

        # the image of the index window indexes the flattened 1D system
        image_support = SupportSet.from_points(
            (encode_support(params, n),) for n in window.support_points
        )
        one_d_system = build_reduced_system(image_support, dilation_1d())
        eta_image = {(encode_index(params, k),) for k in window.index_points}
        if eta_image != set(one_d_system.index_set):
            ok, detail = False, f"flattened index set mismatch at N={n_exp}"
            break
    report(4, "index windows satisfy the index-set conditions and flatten to 1D index sets",
           ok, detail)


def test_criterion_5_transfer_suite():
    start = time.monotonic()
    ok = True
    detail = ""
    targets = (dilation_1d(), quincunx_matrix(), antidiagonal_matrix(), companion_3d_matrix())
    for make in BUNDLED:
        source = make()
        src_res = lawton_residuals(source)
        for target in targets:
            rep = transfer(source, target)
            if not verify_isomorphism(rep.source_filter.system, rep.target_filter.system,
                                      rep.iso):
                ok, detail = False, f"witness rejected for {make.__name__}"
                break
            tgt_res = lawton_residuals(rep.target_filter)
            same = (
                sorted(tgt_res.per_index.values()) == sorted(src_res.per_index.values())
                and tgt_res.sum_residual == src_res.sum_residual
            )
            if not same:
                ok, detail = False, f"residual multiset changed for {make.__name__}"
                break
        if not ok:
            break

    if ok:  # 1D round trips recover the input exactly
        for make in (haar_1d, daubechies4_1d):
            source = make()
            for target in targets:
                back = to_one_d(from_one_d(source, target).target_filter)
                if back.target_filter.coeffs != source.coeffs:
                    ok, detail = False, f"round trip failed for {make.__name__}"
                    break
            if not ok:
                break

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(5, "transfers of bundled filters: witnesses verify, residuals preserved, "
              "1D round trips exact", ok, detail or f"{elapsed:.1f}s")


def test_criterion_6_residual_quantities():
    ok = True
    details = []
    haar_res = lawton_residuals(haar_1d()).max_residual
    if not haar_res < 1e-15:
        ok = False
        details.append(f"haar {haar_res:.2e}")
    db4_res = lawton_residuals(daubechies4_1d()).max_residual
    if not db4_res < 1e-12:
        ok = False
        details.append(f"db4 {db4_res:.2e}")

    targets = (dilation_1d(), quincunx_matrix(), antidiagonal_matrix(), companion_3d_matrix())
    for make in BUNDLED:
        source = make()
        src = lawton_residuals(source)
        if qmf_check(source) >= 1e-10:
            ok = False
            details.append(f"qmf {make.__name__}")
        for target in targets:
            rep = transfer(source, target)
            tgt = lawton_residuals(rep.target_filter)
            bitwise = (
                tgt.sum_residual == src.sum_residual
                and tgt.max_residual == src.max_residual
                and sorted(tgt.per_index.values()) == sorted(src.per_index.values())
            )
            if not bitwise:
                ok = False
                details.append(f"bitwise {make.__name__}")
            if qmf_check(rep.target_filter) >= 1e-10:
                ok = False
                details.append(f"qmf transferred {make.__name__}")
    report(6, "haar < 1e-15, db4 < 1e-12, transferred residuals bit-identical, "
              "qmf < 1e-10", ok, "; ".join(details))


def test_criterion_7_cascade_quantities():
    start = time.monotonic()
    ok = True
    details = []

    _, haar_diffs = run_cascade(haar_1d(), max_level=12)
    if haar_diffs != [0.0] * 12:
        ok = False
        details.append("haar not a fixed point")

    grid, diffs = run_cascade(daubechies4_1d(), max_level=12)
    if not diffs[-1] < 1e-3:
        ok = False
        details.append(f"db4 last diff {diffs[-1]:.2e}")
    gram = translate_gram(grid, [(m,) for m in range(-3, 4)])
    if not abs(gram[(0,)] - 1.0) < 1e-2:
        ok = False
        details.append(f"G(0) err {abs(gram[(0,)] - 1.0):.2e}")
    for m in range(1, 4):
        if abs(gram[(m,)]) >= 1e-2 or abs(gram[(-m,)]) >= 1e-2:
            ok = False
            details.append(f"G({m}) too large")

    for make in BUNDLED:
        filt = make()
        g = initial_grid(filt.matrix)
        for _ in range(12):
            g = cascade_step(g, filt)
            if abs(g.integral() - 1.0) >= 1e-9:
                ok = False
                details.append(f"integral drift {make.__name__} level {g.level}")
                break

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(7, "haar fixed point, db4 convergence and Gram window, integral invariant",
           ok, "; ".join(details) or f"{elapsed:.1f}s")


def test_criterion_8_quincunx_suite():
    start = time.monotonic()
    ok = True
    details = []

    v00 = shannon_coeff(0, 0)
    if not abs(v00 - 0.70710678) <= 1e-8:
        ok = False
        details.append(f"s(0,0) = {v00:.10f}")

    # The defining integral over the diamond |t1|+|t2| <= pi gives
    # integral cos(t1) = 8 exactly, so s(1,0) = 2*sqrt(2)/pi^2.
    v10 = shannon_coeff(1, 0)
    s10 = 2 * math.sqrt(2) / math.pi ** 2
    if not abs(v10 - s10) <= 1e-6:
        ok = False
        details.append(
            f"s(1,0) = {v10:.10f} vs 2*sqrt(2)/pi^2 = {s10:.10f} "
            f"(difference {v10 - s10:.3e})"
        )

    pattern = support_pattern(3)
    odd_points = [p for p in pattern.values if sum(p) % 2 != 0]
    if not (len(odd_points) == 24 and pattern.min_odd_magnitude > 0.01):
        ok = False
        details.append(f"odd-sum pattern (min {pattern.min_odd_magnitude:.4f})")
    if not pattern.max_even_magnitude < 1e-9:
        ok = False
        details.append(f"even-sum magnitude {pattern.max_even_magnitude:.2e}")

    shifted = SupportSet.from_points(
        [(m - 1, n) for (m, n), v in pattern.values.items() if abs(v) > 1e-9]
    )
    if not sublattice_premise(shifted, 2):
        ok = False
        details.append("sublattice premise")

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(8, "quincunx Shannon values, parity pattern, sublattice premise",
           ok, "; ".join(details) or f"{elapsed:.1f}s")
