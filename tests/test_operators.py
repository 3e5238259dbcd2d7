import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spherehhd import operators, verify
from spherehhd.operators import _dense_system, build_A, build_B, shuffle_permutation
from spherehhd.pointwise import eval_Y, eval_Z
from spherehhd.recurrences import alpha, beta, delta
from spherehhd.solver import BLOCK_CHUNK_STEPS, CHUNK_STEPS, _recurrence, cscy_to_z, differentiate, z_to_cscy
from spherehhd.spectra import TangentField, random_potentials

from conftest import FOLD_DEGREES


def test_build_A_values_n3_m1():
    expected = np.array([[0.0, -1.3416407864998738], [0.4472135954999579, 0.0], [0.0, 0.9561828874675149]])
    assert_allclose(build_A(3, 1), expected, atol=1e-15)


def test_build_A_smallest_system():
    assert_allclose(build_A(2, 1), [[0.0], [0.4472135954999579]], atol=1e-15)


@pytest.mark.parametrize("n,m", [(5, 1), (9, 4), (17, 16), (12, 3)])
def test_build_A_zero_main_diagonal(n, m):
    dense = build_A(n, m)
    assert not np.any(np.diagonal(dense))
    assert dense.shape == (n + 1 - m, n - m)


def test_build_A_order_zero_shape():
    dense = build_A(6, 0)
    assert dense.shape == (7, 5)
    # columns are potential degrees 1..5; each column couples degrees l' -/+ 1
    for j, lp in enumerate(range(1, 6)):
        nz = np.nonzero(dense[:, j])[0]
        assert list(nz) == [lp - 1, lp + 1]


def test_build_B_structure():
    assert_allclose(build_B(4, 2), [[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    assert_allclose(build_B(2, 1), [[1.0], [0.0]])
    assert_allclose(build_B(5, 4), [[4.0], [0.0]])


def test_build_domain_errors():
    with pytest.raises(ValueError):
        build_A(4, 4)
    with pytest.raises(ValueError):
        build_B(4, 0)
    with pytest.raises(ValueError):
        build_B(4, 4)


def test_shuffle_permutation_examples():
    # 0-based equivalents of collecting odd 1-based indices before even ones
    assert list(shuffle_permutation(6)) == [0, 2, 4, 1, 3, 5]
    assert list(shuffle_permutation(2)) == [0, 1]
    assert list(shuffle_permutation(8)) == [0, 2, 4, 6, 1, 3, 5, 7]
    with pytest.raises(ValueError, match="^shuffle_permutation: size must be even$"):
        shuffle_permutation(5)
    with pytest.raises(ValueError, match="^shuffle_permutation: size must be >= 0, got -2$"):
        shuffle_permutation(-2)


def test_order_system_pentadiagonal():
    # the perfect shuffle of rows and columns scatters [[A, B], [B, A]] into
    # a band of two diagonals on either side
    dense = _dense_system(3, 1)
    shuffled = np.zeros_like(dense)
    shuffled[np.ix_(shuffle_permutation(6), shuffle_permutation(4))] = dense
    rows, cols = np.nonzero(shuffled)
    assert shuffled.shape == (6, 4)
    assert np.max(np.abs(rows - cols)) == 2


def test_order_system_refuses_entries_outside_the_band(monkeypatch):
    # without the shuffle, B's top-right copy lies p columns right of the
    # diagonal: the structure check must report it rather than pass
    monkeypatch.setattr(operators, "shuffle_permutation", np.arange)
    assert max(dev for _, dev in verify.structure_deviations([9])) > 0


def test_structure_check_sees_an_entry_of_A_off_its_band(monkeypatch):
    # build_A and the check read the same entries: move order 2's first one
    # onto the main diagonal, and both see it
    true_entries = operators._block_entries

    def entries_with_one_moved(n, orders):
        (m, i, j, v), b = true_entries(n, orders)
        i, first = i.copy(), np.searchsorted(m, 2)
        i[first] = j[first]
        return (m, i, j, v), b

    monkeypatch.setattr(operators, "_block_entries", entries_with_one_moved)
    assert np.any(np.diagonal(build_A(9, 2)))
    deviations = dict(verify.structure_deviations([9]))
    assert deviations.pop("(n=9, m=2)") > 0
    assert not any(deviations.values())


def test_order_system_matches_blocks_small():
    expected = np.array(
        [[0.0, 1.0], [0.4472135954999579, 0.0], [1.0, 0.0], [0.0, 0.4472135954999579]]
    )
    assert_allclose(_dense_system(2, 1), expected, atol=1e-15)


@pytest.mark.parametrize("n,m", [(5, 2), (9, 1), (9, 8), (16, 7)])
def test_order_system_scatter_identity(n, m):
    # the entries of every order of n, scattered through the shuffle's index
    # maps, give the interleaved system of one order's [[A, B], [B, A]]
    assert dict(verify.permutation_deviations([n]))[f"(n={n}, m={m})"] == 0.0


def test_z_to_cscy_zero():
    assert not np.any(z_to_cscy(np.zeros(9), 1, 8))


def test_z_to_cscy_unit_vector():
    # unit tangential coefficient at degree 0, order 1 feeds only degree 1
    n = 3
    z = np.zeros(n + 1)
    z[0] = 1.0
    w = z_to_cscy(z, 1, n)
    expected = np.zeros(n)
    expected[0] = beta(0, 1)
    assert_allclose(w, expected, atol=1e-16)
    assert expected[0] == pytest.approx(np.sqrt(2 / 3), rel=1e-15)


def test_z_to_cscy_length_check():
    with pytest.raises(ValueError):
        z_to_cscy(np.zeros(5), 1, 8)
    with pytest.raises(ValueError):
        cscy_to_z(np.zeros(5), 1, 8)
    # an order outside basis Z at n = 8 (|m| <= 9), or at n <= 0 (no order 0), is named, whatever the length;
    # so is the int64 minimum, whose abs wraps
    for m, n in ((10, 8), (-10, 8), (0, 0), (0, -1), (np.int64(-2**63), 8)):
        for convert in (z_to_cscy, cscy_to_z):
            for length in (0, 1):
                with pytest.raises(ValueError, match=f"order {m} outside basis Z with n={n}"):
                    convert(np.ones(length), m, n)


def test_cscy_to_z_zero():
    assert not np.any(cscy_to_z(np.zeros(8), 1, 8))


def test_cscy_to_z_unit_top_degree():
    # a unit csc-harmonic coefficient at the top degree n enters through the
    # square parity chain: the top equation forces z_{n-1} = 1/beta(n-1),
    # and the lower equations cascade down that chain
    n, m = 6, 1
    w = np.zeros(n - m + 1)
    w[-1] = 1.0
    z = cscy_to_z(w, m, n)
    assert z[(n - 1) - (m - 1)] == pytest.approx(1.0 / beta(n - 1, m), rel=1e-15)
    expected = np.zeros(n - m + 2)
    expected[5] = 1.0 / beta(5, 1)
    expected[3] = -alpha(5, 1) * expected[5] / beta(3, 1)
    expected[1] = -alpha(3, 1) * expected[3] / beta(1, 1)
    assert_allclose(z, expected, atol=1e-15)
    # the conversion is exactly invertible on this data: no tail is dropped
    assert_allclose(z_to_cscy(z, m, n), w, atol=1e-15)


@pytest.mark.parametrize("n", [4, 8, 16, 33, 64])
def test_conversion_exact_on_differentiated_data(n):
    s, t = random_potentials(n, seed=n)
    field = differentiate(s, t)
    for comp in (field.theta, field.phi):
        for m in comp.orders():
            if abs(m) > n - 1:
                continue
            z = comp.order_slice(m)
            w = z_to_cscy(z, m, n)
            z2 = cscy_to_z(w, m, n)
            scale = max(1.0, np.max(np.abs(z)))
            assert np.max(np.abs(z2 - z)) / scale < 1e-12


def test_roundtrip_on_exact_data_order_two():
    n = 8
    s, t = random_potentials(n, seed=77)
    field = differentiate(s, t)
    z = field.theta.order_slice(2)
    w = z_to_cscy(z, 2, n)
    z2 = cscy_to_z(w, 2, n)
    assert np.max(np.abs(z2 - z)) < 1e-13


def test_pointwise_conversion_identity_with_tail(rng):
    # sum_l z_l Z_{l,1} == sum_l w_l cscY_{l,1} + beta(n,1) z_n cscY_{n+1,1}
    n, m = 8, 1
    z = rng.standard_normal(n - abs(m - 1) + 1)
    w = z_to_cscy(z, m, n)
    for th in np.linspace(0.2, np.pi - 0.2, 20):
        ph = 0.7
        lhs = sum(z[k] * eval_Z(abs(m - 1) + k, m, th, ph) for k in range(len(z)))
        csc = 1.0 / np.sin(th)
        rhs = sum(w[k] * eval_Y(m + k, m, th, ph) * csc for k in range(len(w)))
        rhs += beta(n, m) * z[-1] * eval_Y(n + 1, m, th, ph) * csc
        assert abs(lhs - rhs) < 1e-12


def test_pointwise_single_mode_identity():
    # Z_{l,m} = alpha cscY_{l-1,m} + beta cscY_{l+1,m} at interior nodes (|m| >= 1)
    for th in np.linspace(0.15, np.pi - 0.15, 7):
        csc = 1.0 / np.sin(th)
        for m in (1, 2, 5, -1, -3):
            mu = abs(m)
            for l in range(max(mu - 1, 1), 9):
                rhs = beta(l, mu) * eval_Y(l + 1, m, th, 0.4) * csc
                if l - 1 >= mu:
                    rhs += alpha(l, mu) * eval_Y(l - 1, m, th, 0.4) * csc
                assert abs(eval_Z(l, m, th, 0.4) - rhs) < 1e-13


def test_pointwise_identity_sign_flips_at_order_zero():
    # at m = 0 the tangential basis uses order-one Legendre functions and the
    # recurrence coefficients produce the negated combination
    for th in (0.4, 1.3, 2.2):
        csc = 1.0 / np.sin(th)
        for l in (1, 2, 4, 7):
            rhs = alpha(l, 0) * eval_Y(l - 1, 0, th, 0.0) * csc
            rhs += beta(l, 0) * eval_Y(l + 1, 0, th, 0.0) * csc
            assert abs(eval_Z(l, 0, th, 0.0) + rhs) < 1e-13


def test_order_zero_conversion_is_its_closed_stencil_to_the_byte(rng):
    # w_{l-1} = -(beta(l - 2, 0) z_{l-2} + alpha(l, 0) z_l) for l = 1 .. n + 1, with the z of degrees -1, 0
    # and n + 1 read as -0.0: they set the signs of zero results, which no test of closeness sees
    for n in range(1, 41):
        a = alpha(np.arange(1, n + 2), 0)
        b = np.concatenate(([0.0], beta(np.arange(n), 0)))  # beta(-1, 0) = 0 meets a pad
        for z in (np.zeros(n), -np.zeros(n), rng.choice([0.0, -0.0], n), rng.choice([0.0, -0.0, 1.5, -0.25], n)):
            padded = np.concatenate(([-0.0, -0.0], z, [-0.0]))
            want = -(b * padded[:-2] + a * padded[2:])
            assert z_to_cscy(z, 0, n).tobytes() == want.tobytes(), (n, z)


def test_m_zero_conversion_roundtrip():
    n = 9
    s, t = random_potentials(n, seed=13)
    field = differentiate(s, t)
    z = field.theta.order_slice(0)
    w = z_to_cscy(z, 0, n)
    z2 = cscy_to_z(w, 0, n)
    assert np.max(np.abs(z2 - z)) < 1e-13


def test_delta_consistency_in_A():
    # subdiagonal of A holds the higher-degree derivative coefficients
    a = build_A(6, 2)
    for j, lp in enumerate(range(2, 6)):
        assert a[j + 1, j] == pytest.approx(delta(lp, 2), rel=1e-15)


def _chain_solve_reference(w, m, n):
    """Naive sequential substitution, for cross-checking the vectorized scan."""
    mu = abs(m)
    if mu == 0:
        z = np.zeros(n)
        for l in range(1, n + 1):  # bottom-up, both parities interleaved
            acc = -w[l - 1]
            if l - 2 >= 1:
                acc -= beta(l - 2, 0) * z[l - 3]
            z[l - 1] = acc / alpha(l, 0)
        return z
    z = np.zeros(n - mu + 2)
    for l in range(n, mu - 2, -1):  # top-down
        if l + 1 > n:
            continue  # free top coefficient of the deficient chain stays zero
        acc = w[l + 1 - mu]
        if l + 2 <= n:
            acc -= alpha(l + 2, mu) * z[l + 2 - (mu - 1)]
        z[l - (mu - 1)] = acc / beta(l, mu)
    return z


@pytest.mark.parametrize("n,m", [(8, 1), (8, 0), (9, 3), (40, 1), (401, 350), (128, 127)])
def test_vectorized_chain_matches_reference(n, m, rng):
    # includes a long high-order chain whose scan products underflow to zero
    length = n + 1 if m == 0 else n - abs(m) + 1
    w = rng.standard_normal(length)
    fast = cscy_to_z(w, m, n)
    slow = _chain_solve_reference(w, m, n)
    assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)


def _differentiate_reference(s, t):
    """Per-order differentiate: one dense ``build_A`` product and one naive chain per slice."""
    n = s.n + 1
    out = TangentField.zeros(n)
    a0 = build_A(n, 0)
    for comp, pot in ((out.theta, s), (out.phi, t)):
        comp.set_order_slice(0, _chain_solve_reference(a0 @ pot.order_slice(0)[1:], 0, n))
    for m in range(1, n):
        a = build_A(n, m)
        sp, sm, tp, tm = (pot.order_slice(k) for pot in (s, t) for k in (m, -m))
        # B adds m times the partner potential on the first n - m rows
        for comp, order, x, partner in (
            (out.theta, m, sp, -tm),
            (out.theta, -m, sm, tp),
            (out.phi, m, tp, sm),
            (out.phi, -m, tm, -sp),
        ):
            w = a @ x
            w[: a.shape[1]] += m * partner
            comp.set_order_slice(order, _chain_solve_reference(w, m, n))
    return out


@pytest.mark.parametrize("n", sorted(FOLD_DEGREES + [32, 33, 34, 100]))
def test_blocked_differentiate_matches_per_order_reference(n):
    # orders 1..n-1 in folded blocks, each lane holding order m and n - m;
    # n = 32, 33, 34 and 100 add short first blocks of 16 and 17 lanes, with
    # and without order n / 2, and a short second block
    s, t = random_potentials(n, seed=n)
    fast, slow = differentiate(s, t), _differentiate_reference(s, t)
    for a, b in ((fast.theta, slow.theta), (fast.phi, slow.phi)):
        assert np.max(np.abs(a.flat() - b.flat())) <= 1e-13 * np.max(np.abs(b.flat()))


def _sequential(g, a, b, d):
    """``y[i] = (g[i] + a[i] y[i-1] + b[i] y[i-2]) / d[i]``, one row at a time."""
    y = np.zeros_like(g)
    for i in range(len(g)):
        acc = g[i].copy()
        if a is not None and i >= 1:
            acc += a[i] * y[i - 1]
        if b is not None and i >= 2:
            acc += b[i] * y[i - 2]
        y[i] = acc if d is None else acc / d[i]
    return y


def _run_kernel(g, coefs, downward):
    """The kernel on ``g`` and ``coefs``, through reversed views when ``downward``."""
    if not downward:
        out = g.copy()
        _recurrence(out, *coefs, work={})
        return out
    # stored top row first, presented bottom row first: the same sequence
    stored = g[::-1].copy()
    _recurrence(stored[::-1], *(None if x is None else x[::-1].copy()[::-1] for x in coefs), work={})
    return stored[::-1]


@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(1, 3 * BLOCK_CHUNK_STEPS + 1),
    nprob=st.integers(1, 4),
    r=st.integers(1, 3),
    form=st.sampled_from(["first", "second", "parity"]),
    downward=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=CHUNK_STEPS - 1, nprob=1, r=1, form="second", downward=False, seed=0)
@example(p=2 * CHUNK_STEPS, nprob=1, r=2, form="first", downward=True, seed=1)
@example(p=2 * CHUNK_STEPS + 1, nprob=1, r=4, form="parity", downward=True, seed=2)
@example(p=BLOCK_CHUNK_STEPS - 1, nprob=2, r=1, form="second", downward=False, seed=3)
@example(p=2 * BLOCK_CHUNK_STEPS, nprob=3, r=2, form="first", downward=True, seed=4)
@example(p=2 * BLOCK_CHUNK_STEPS + 1, nprob=2, r=4, form="parity", downward=True, seed=5)
def test_recurrence_matches_sequential_loop(p, nprob, r, form, downward, seed):
    # grids of p rows, any p, upward and through reversed views; problems of
    # mixed sizes, zero right-hand side past each size; first order (the
    # rotations), second order (the back-substitution) and second order
    # without a (the parity chains of the conversions).  One problem runs in
    # chunks of CHUNK_STEPS, several in BLOCK_CHUNK_STEPS
    rng = np.random.default_rng(seed)
    sizes = np.append(p, rng.integers(1, p + 1, nprob - 1))
    g = rng.standard_normal((p, r, nprob)) * (np.arange(p)[:, None, None] < sizes)

    def coef(lo, hi):
        return rng.uniform(lo, hi, (p, nprob))

    coefs = {
        "first": (coef(-1.0, 1.0), None, None),
        "second": (coef(-0.5, 0.5), coef(-0.5, 0.5), coef(1.0, 2.0)),
        "parity": (None, coef(-1.0, 1.0), coef(1.0, 2.0)),
    }[form]
    want = _sequential(g, *coefs)
    got = _run_kernel(g, coefs, downward)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("form", ["first", "second", "parity"])
def test_recurrence_chunk_responses_underflow(form):
    # coefficients of 1e-200 make a chunk's responses to its inflow underflow
    # to zero; the carry must stay finite and exact, in chunks of CHUNK_STEPS
    # (one problem) and of BLOCK_CHUNK_STEPS (several)
    rng = np.random.default_rng(7)
    for rows, nprob in ((3 * CHUNK_STEPS + 1, 1), (3 * BLOCK_CHUNK_STEPS + 1, 3)):
        g = rng.standard_normal((rows, 2, nprob))
        tiny = np.full((rows, nprob), -1e-200)
        coefs = {"first": (tiny, None, None), "second": (tiny, tiny, tiny * -1e190),
                 "parity": (None, tiny, None)}[form]
        for downward in (False, True):
            got = _run_kernel(g, coefs, downward)
            assert np.all(np.isfinite(got))
            want = _sequential(g, *coefs)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6 * CHUNK_STEPS + 3), m=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_chain_solve_matches_sequential_reference(n, m, seed):
    # both parities of n, order zero's upward chains and the downward ones of m >= 1
    m = min(m, n - 1)
    w = np.random.default_rng(seed).standard_normal(n + 1 if m == 0 else n - m + 1)
    want = _chain_solve_reference(w, m, n)
    assert np.max(np.abs(cscy_to_z(w, m, n) - want)) <= 1e-13 * np.max(np.abs(want))
