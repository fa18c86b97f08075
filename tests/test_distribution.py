import hashlib
import inspect
import math
import tracemalloc
from unittest import mock
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_mrl import (DomainError, EvalConfig, ParameterError,
                          PSingularParams, ResourceLimitError, cdf, cdf_many,
                          cdf_integral, cdf_integral_many, cdf_with_bound, expected_payoff,
                          gap_intervals, gmrl, i1_closed_form, mrl, mrl_many, optimal_price,
                          payoff_curve, point_cloud, sample, survival)
from singular_mrl import distribution
from singular_mrl.distribution import (_CHUNK, _LEAD, _SAMPLE_BLOCK, ONE_THIRD, TWO_THIRDS,
                                      _alias_table, _descend, _descend_many, _many,
                                      _jump_table, gap_grid)
from singular_mrl.fixedpoint import verify_uniqueness
from singular_mrl.verify import check_dkw

P1 = PSingularParams(1.0)
P2 = PSingularParams(2.0)

# stop requests (tol_f, tol_j), inf where a bracket is not asked for: F
# alone and J alone at 1e-10, both at 1e-10, and F at 1e-6 with J at 1e-12
STOP_MODES = [(1e-10, math.inf), (math.inf, 1e-10), (1e-10, 1e-10), (1e-6, 1e-12)]


def descents(tol_f, tol_j):
    """The descents (tol, reads, tail) that meet a request.  A descent
    stops on J's bracket where it reads J alone and on F's otherwise, so a
    request runs one per finite tolerance, each as F's walk and as the
    tail walk; the tail walk that reads "FJ", the MRL's, stops on the
    relative test."""
    return [(tol, reads, tail)
            for tol, reads in ((tol_f, "FJ"), (tol_j, "J")) if tol < math.inf
            for tail in (False, True)]


def read_rows(reads):
    """The rows of (F, F bound, J, J bound) that `reads` names."""
    return [i for i, name in enumerate("FFJJ") if name in reads]


def scalar_rows(params, xs, *args):
    """`_descend(params, x, *args)` at every x of xs, one row per quantity."""
    return np.array([_descend(params, x, *args) for x in np.asarray(xs).tolist()]).T


def gather(groups, xs, tail=False):
    """The rows F, F bound, J and J bound of the groups of a vector descent
    of xs, put back in input order, a later group over an earlier one; a
    quantity the walk did not carry stays NaN.  Every position must come
    in a group, and in two only where the first ended the point early and
    the second holds its value: a tiny odd double, which the vector walk
    ends on the plateau as a placeholder and the scalar loop walks, or a
    point the head leaves live, which its slice ends on the plateau and
    the pool walks on."""
    xs = np.asarray(xs, dtype=float)
    out, seen = np.full((4, xs.size), np.nan), np.zeros(xs.size, dtype=int)
    for at, *rows in groups:
        np.add.at(seen, at, 1)
        for row, values in zip(out, rows):
            if values is not None:
                row[at] = values
    assert (seen >= 1).all()
    again = np.flatnonzero(seen > 1)
    if again.size:
        assert (seen <= 2).all()
        ys = xs.take(again)
        assert (~carried(ys, tail) | live_after_head(ys, tail)).all()
    return out


def carried(xs, tail=False):
    """Whether the vector walk carries each point, 0 < x < 1 a multiple of
    2^-63 and, in a tail walk, x > 3^-8, whose leading run ends within the
    head; it holds every other one as a placeholder, which ends at once:
    0 and 1 with their own values, the rest to be walked by the scalar
    loop."""
    return np.array([0 < n < d <= 2 ** 63 and (not tail or n * 3 ** 8 > d)
                     for n, d in map(float.as_integer_ratio, xs.tolist())])


def live_after_head(xs, tail):
    """Whether the head leaves each point live: a point that the vector
    walk carries in a cell floor(3^8 x) whose multiplier is +-3^8."""
    mult = distribution._head_table(tail)[1]
    cells = [n * 3 ** 8 // d for n, d in map(float.as_integer_ratio, xs.tolist())]
    return carried(xs, tail) & (np.abs(mult.take(cells, mode="clip")) >= 3 ** 8)


def twins(params, xs, tol_f, tol_j):
    """The rows that each descent of a request reads, from the vector and
    from the scalar loop, each stacked into one array."""
    vec, scalar = [], []
    for args in descents(tol_f, tol_j):
        rows = read_rows(args[1])
        vec.append(gather(_descend_many(params, xs, *args), xs, args[2])[rows])
        scalar.append(scalar_rows(params, xs, *args)[rows])
    return np.concatenate(vec), np.concatenate(scalar)


def bits(values):
    """The IEEE bit patterns of float values, so that equality is bit for bit."""
    return np.asarray(values, dtype=float).view(np.uint64)


def survival_many(params, xs):
    """`survival`'s descent run as a vector: p S' from the tail walk at
    min(tol, tol/p), S' itself at x = 0, at the default tolerance."""
    p, tol = params.p, 1e-10
    return _many(params, xs, min(tol, tol / p), lambda x, s, k: np.where(x > 0.0, p * s, s), "F",
                 tail=True)


# each vector evaluator with its scalar twin
EVALUATORS = [(cdf_many, cdf), (cdf_integral_many, lambda P, x: cdf_integral(P, x).value),
              (mrl_many, lambda P, x: mrl(P, x).value), (payoff_curve, expected_payoff),
              (survival_many, survival)]

# points the vector walk holds as placeholders: 0 and 1, which end there
# with their own values, and doubles below 2^-11 that are not multiples of
# 2^-63, which the scalar loop walks
ODD_POINTS = [0.0, 1.0, 3e-300, 2.0 ** -30 + 2.0 ** -80, 1 / 3 ** 8]

# the most live points of a pool that the scalar loop walks: none, one,
# the default and every point, so that the twin points' pools walk in
# numpy to their end, hand their last few points to `_walk_from` mid-walk,
# or walk in the scalar loop alone
FEW_LIVE = [0, 1, distribution._FEW, _CHUNK]

# the ends and both sides of 1/3, where the reflected evaluators switch
# branch: fl(1/3) lies below 1/3, and the next double, 1 - fl(2/3), above
BRANCH_EDGES = [0.0, ONE_THIRD, np.nextafter(ONE_THIRD, 1.0), 1.0 - TWO_THIRDS, 0.5,
                1.0 - 2.0 ** -53, 1.0]


def odd_in_every_slice():
    """3 `_CHUNK` + 5 uniform points, with 0 first and an odd point in
    each of the four slices."""
    xs = np.random.default_rng(17).random(3 * _CHUNK + 5)
    xs[[0, _CHUNK + 7, 2 * _CHUNK + 11, 3 * _CHUNK + 2, 3 * _CHUNK + 4]] = ODD_POINTS
    return xs


def grid_eval_batch():
    """A shuffled batch like grid-eval's: uniform points, points within
    1e-6 of 1 and every rounded gap endpoint."""
    rng = np.random.default_rng(20261019)
    return rng.permutation(np.concatenate((rng.random(50_000), 1.0 - rng.random(500) * 1e-6,
                                           gap_grid(0))))


# sha256 of `fn(PSingularParams(p), grid_eval_batch()).tobytes()` by (fn, p):
# F and J as the vector walk returned them when it still left odd points
# out, m and the payoff as the tail walk returns them
VECTOR_DIGESTS = {
    ("cdf_many", 0.01): "fa24dcc809472493d5987b7ab3d8cffa949261da7f089e1357dd70baea147ed4",
    ("cdf_many", 1.0): "164cdafb56cb6298a12b0f1fbe8ac4c560cea1bdd4c7c1b94ac57b53ad3cc8ca",
    ("cdf_many", 100.0): "ced0d9fe2c8246fcf3d0839b71c63035d53573b4409ed52d452a1424f828d734",
    ("cdf_integral_many", 0.01): "9e6ab919c87a1c15d0d492eeb764dc1e0ec462426b25fd61ff50e2a4ef8ca5e5",
    ("cdf_integral_many", 1.0): "d432fccb7bcc16a95219e64b1ed3f1e7bd997df1e097e358ad7ff95aa6b7b642",
    ("cdf_integral_many", 100.0): "b9d4538cadd2ee7df5590b020452a032f14b5d210abf6476772dd33e05ad1218",
    ("mrl_many", 0.01): "9ef4bfe38fd0c812537192857e2bffb4fcbd7d3c5ac9cbb9998fccb411412a0d",
    ("mrl_many", 1.0): "9830a3f78ca4e026498d7e77a9dbc1c14a047ec6770e1edd23dc36f242f1c806",
    ("mrl_many", 100.0): "920072f16fc150675668f0c5ea21a01083fdbe73d55a1d638345e3135e3a2156",
    ("payoff_curve", 0.01): "e28c5a6a13b92a1c5dfa07fd74602cbcfa22b8793b53f522646734ca44c817d4",
    ("payoff_curve", 1.0): "21286e7c94cb3f54dd889be3955e94e4fede65f2c753ec2fc007234c754f9b5b",
    ("payoff_curve", 100.0): "e8775a9a17223ccbc4bc7c2826ba61fcb628c57d8f9c0ccea3239ecc84b72332",
    # F and J recorded while the branch of 1/3 was still picked with np.where
    ("cdf_many", 1e-06): "919d11e4ecc01f2dda5aa3456746ee82e05619f1c305fd5efa4cccbe6df24312",
    ("cdf_many", 1e6): "804299fe17cbd3195603b0db31680d8374cd6d45c0f98c53925f9c71ccd778b1",
    ("cdf_integral_many", 1e-06): "533bf5e9c33990d02a645dd554c1bb4dfdf18120b0af69c2d55d02537a8f1038",
    ("cdf_integral_many", 1e6): "2073e066b8438476a53adf05708814a73edcc90106d1a51270e38b4169fb4c49",
    ("mrl_many", 1e-06): "0406886873ded986153e0863506fa336f0c5d40b0cf5204f2b71f6b3f81a1464",
    ("mrl_many", 1e6): "86a366cb17172be4aae7e46b278932b8e37d81649812d88c4b886e4394c57215",
    ("payoff_curve", 1e-06): "3ee257460cf3bc95ec180e2af038d018f48d206ec5fdd6e5b21ec938bc1e7ac1",
    ("payoff_curve", 1e6): "792129dde9be566c83efcd67481f122087e50a84f5c88b9c311cf9955a487ca5",
}

# the short inputs of the solvers and of the placeholders' edges, each of
# at most `_CHUNK` points: the payoff curve's and `mrl_many`'s prices, the
# uniqueness scan's points (`verify_uniqueness`) and the odd points with
# both sides of 1/3
SHORT_INPUTS = {"curve": lambda: np.linspace(0.0, 1.0, 200), "scan": lambda: gap_grid(1000)[:-1],
                "edges": lambda: np.array(ODD_POINTS + BRANCH_EDGES)}

# sha256 of `fn(PSingularParams(p), SHORT_INPUTS[name]()).tobytes()` by
# (fn, name, p): F and J as the short inputs' walk returned them when it
# still compacted at every level and sent 0 and 1 to the scalar loop, m and
# the payoff as the tail walk returns them
SHORT_DIGESTS = {
    ("payoff_curve", "curve", 1e-06): "39cd5d0632966aa18f58598aec3253cf7d8f629b7bc50885fe0967d50839ae0d",
    ("payoff_curve", "curve", 0.01): "6f2f0e7050085292035624a389a1ee8e4a383f203d821531030216d08c30c8ab",
    ("payoff_curve", "curve", 1.0): "70f3bd0438b17e4b6887b0cd0d1e0858265e991b56d89c00597207e74a6d1c4c",
    ("payoff_curve", "curve", 100.0): "13fef3d69c9a2ab0449722dd9b6eaef457f90c287107da54c8deb6e492a48700",
    ("payoff_curve", "curve", 1e6): "fba3184743803d883c2b4345bfc0ae427688f06f7daf97355c8558c82e5edb63",
    ("mrl_many", "curve", 1e-06): "002e5b2f09a41c05530b5e4eb521ae4fdec9debda28e7f12aaa7b1836350964a",
    ("mrl_many", "curve", 0.01): "405d3cf28d058f7a22257a1b2f3b39b60e9de82d764f64f16369eedc2d9336a4",
    ("mrl_many", "curve", 1.0): "9b0fe3fb0d2c248b56c0175f0217550347162075a65ae6a7ef6c2ef1af56c590",
    ("mrl_many", "curve", 100.0): "eb06e1dfa6f11009880237f2b26f000b21df7619cb2f37f138696f8c37e47e64",
    ("mrl_many", "curve", 1e6): "d87d9e27bbebb59e5c4d3956efeb051e83e8e54a424605ab0b72e2219e04b0d1",
    ("mrl_many", "scan", 1e-06): "95ce44388fc3045eb4c9d8211407536e8993a5db77d71af6cb69de4e8dc00211",
    ("mrl_many", "scan", 0.01): "ebb56e75e8ce8503909e843478136796b3b674456a2902210a58a49cb4ea0d01",
    ("mrl_many", "scan", 1.0): "b80b9cc8351b16e747ba46d7030318aace241697143c41a2cc4197719e226938",
    ("mrl_many", "scan", 100.0): "91da8576d8d8692d6bc3145b23d1d3a04c473ab344a137efb753e6abf7c34d94",
    ("mrl_many", "scan", 1e6): "652b22661aa944ddc878590b77622d065628de7be1b918e9f8785fb30a347e15",
    ("cdf_many", "edges", 1e-06): "b7eb9825084bd23c5340a99a89ca7d850530b1f5ea9457bb7cf143e2b80a934f",
    ("cdf_many", "edges", 0.01): "d6f1d01c717de3618f2022edb9182697419e06d57ecd5bb96623894ba7330e76",
    ("cdf_many", "edges", 1.0): "f7b11281b49f43ae9cdc262afcdec9e5c20d88f043bfcb279f7f488519e164ad",
    ("cdf_many", "edges", 100.0): "5362f020a0466786f3ad8f8a2f6f5a87ae320828b21a347aedf95885c7e03bb5",
    ("cdf_many", "edges", 1e6): "2f876639815cd545ae06b598c44f4d66afaa2bd9267cbecda9496635dfbf8b4c",
    ("cdf_integral_many", "edges", 1e-06): "e9e8fa025c827602820ed91dd1bbcdbd58553b80acdfc87bbea629e8394dfbd7",
    ("cdf_integral_many", "edges", 0.01): "70ff50642e402bb42e33c30d6e33f7eaf698fd47d9a03415bdbd6c686641e184",
    ("cdf_integral_many", "edges", 1.0): "5e99f0d0e396e5432a34d0005351fa5cf10e7eae77ff8378500b28154a5e4150",
    ("cdf_integral_many", "edges", 100.0): "e8c42f1c009a9de877303d85fd07a44f25f26662e0a24bcc75a1610ae1b7ea80",
    ("cdf_integral_many", "edges", 1e6): "448740521f380df214dde9e7c6b45751021056cb236d7cfefd9efe08ad0731b7",
}

# `test_pool_memory_is_bounded`'s bound per function, in slice widths
POOL_BOUNDS = [(cdf_many, 40), (mrl_many, 80), (cdf_integral_many, 40), (payoff_curve, 40)]


def peak_beyond_result(fn, xs):
    """The tracemalloc peak of fn(P1, xs), less the bytes of its result."""
    tracemalloc.start()
    try:
        out = fn(P1, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


def oracle_clouds(params, n_initial, iterations):
    # the shrink-flip iteration as a sort, each cloud from the initial one on:
    # 0, 1 and the maps of the interior, the plateau points among them, put
    # in order by np.unique, which keeps for each distinct x the height of
    # its first copy in the concatenation
    p, v = params.p, params.left_mass
    plateau = np.linspace(1.0 - TWO_THIRDS, TWO_THIRDS, n_initial)
    x = np.concatenate(([0.0], plateau, [1.0]))
    F = np.concatenate(([0.0], np.full(n_initial, v), [1.0]))
    yield x, F
    for _ in range(iterations):
        inner, rise = x[1:-1], F[1:-1]
        x, first = np.unique(np.concatenate(([0.0, 1.0], inner / 3.0, plateau,
                                             1.0 - inner / 3.0)), return_index=True)
        F = np.concatenate(([0.0, 1.0], rise * v, np.full(n_initial, v),
                            1.0 - rise * (p * v)))[first]
        yield x, F


def cloud_oracle(params, n_initial, iterations):
    *_, last = oracle_clouds(params, n_initial, iterations)
    return last


def word_map(w, k):
    """The exact (a_w, s_w) of `_alias_table`'s word w of k levels: bit j
    is level j + 1, a left step s -> s/3, a right one a -> a + s and
    s -> -s/3."""
    a, s = Fraction(0), Fraction(1)
    for j in range(k):
        if w >> j & 1:
            a, s = a + s, -s / 3
        else:
            s = s / 3
    return a, s


def table_words(table):
    """The word at each index 2c + i of `_alias_table`'s maps, read off its
    AW and SW: a_w 3^(k-1) is an integer, and with the sign of s_w it
    names the word."""
    bound, _, _, aw, sw, _ = table
    k = int(bound.size).bit_length() - 1
    maps = {(a * 3 ** (k - 1), s > 0): w for w in range(bound.size) for a, s in [word_map(w, k)]}
    assert len(maps) == bound.size
    return [maps[round(Fraction(a) * 3 ** (k - 1)), s > 0] for a, s in zip(aw.tolist(), sw.tolist())]


# sha256 of `sample(PSingularParams(p), seed, n).tobytes()` by (p, n, seed),
# as the raw 64-bit outputs, the leading run by inversion and the alias
# words in Horner form draw them
SAMPLE_DIGESTS = {
    (1e-300, 1, 0): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    (1e-300, 1, 20261018): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    (1e-300, 65537, 0): "3707e4e2efecb681def42f31ecb7d5ca3bafc6f5ce7ebe064a63e0fcb464dbf0",
    (1e-300, 65537, 20261018): "3707e4e2efecb681def42f31ecb7d5ca3bafc6f5ce7ebe064a63e0fcb464dbf0",
    (1e-300, 200001, 0): "acee3253fbd6f2afec2774dd0036d7927ce5453031d015f653a6e0c5c944037d",
    (1e-300, 200001, 20261018): "acee3253fbd6f2afec2774dd0036d7927ce5453031d015f653a6e0c5c944037d",
    (0.01, 1, 0): "fb3969f2ce92714fb351c10daea5bcffb5c9d1d2c89c24337dfe2f830ecce1c0",
    (0.01, 1, 20261018): "114c738c0a3f3f217d80fb2839b470feaafafe07ca1d096c4a056dc2500f6564",
    (0.01, 65537, 0): "b05999a1452b289b80333934a7b953c853914ec6a2073c1de97bfce54ef104c6",
    (0.01, 65537, 20261018): "ad0376af86fad731d9fd2cb574b6a8c170c3f4d52fe2251459ef79e786ffe557",
    (0.01, 200001, 0): "dd75b0e957242b75bc3605c5fb5ffbab75c5d86ce06d26d46cc455b9b6649117",
    (0.01, 200001, 20261018): "43a38e46460a4940f823e1c9e32fc3128223003c34a5d6b4632c5fd97e15cea0",
    (1.0, 1, 0): "4032d0b5db3ed8d572bb4b6be43fb91794d9eca64b7007657778c7d2fea970e7",
    (1.0, 1, 20261018): "479694213b38da2ad567d79acc0a8b4b656ef70181fd53120cea09c6d440d964",
    (1.0, 65537, 0): "45d82ef7c51fe533c2616f4bec0ebab11cadcbf708b5f50e10eb65229c246a72",
    (1.0, 65537, 20261018): "a921512bace7d71ffa7d97021057a513e58291b46d2ee3f2e21f83c56676aacd",
    (1.0, 200001, 0): "1405d00effcafb82820638add8cdb4091a80cf77d94ec2538d815f2611d3d236",
    (1.0, 200001, 20261018): "7daae6915a9036cbfd9e72a5f1725977945d8ef97fba7f71509180fd1b95e3bf",
    (100.0, 1, 0): "95fa8d1f67551a5b88f76b1c08e04981aae07b9bf57ef41070f77df6cc8e7370",
    (100.0, 1, 20261018): "70d5c350445ec9a25395e2baf4ca3b14c9192b78760776eb97ca2439e447dbe9",
    (100.0, 65537, 0): "e6993b2790816990fe39f5ed8c6bfddcf3e303d0c074e79c03c54068f852f1e4",
    (100.0, 65537, 20261018): "11abea87ba242b753983af643e73508a68261a5998ec6d8a18bf57b4046f70c3",
    (100.0, 200001, 0): "72adb924d01b539aff4572e10307ff91552890c83146222496b4dfc2ef747adb",
    (100.0, 200001, 20261018): "dea151de459c26ffbd89035db0d871bdec7f41300b29fcc7f84fe139e02ebb29",
    (1e+300, 1, 0): "e4319a2d73934f7c5fcec97280687f50b66a4335ae57a4ae90f3920400c8f976",
    (1e+300, 1, 20261018): "e4319a2d73934f7c5fcec97280687f50b66a4335ae57a4ae90f3920400c8f976",
    (1e+300, 65537, 0): "f2aeb3622a8f91fcb481624fd59fad0829c058198a8accd5c54217de2431caa2",
    (1e+300, 65537, 20261018): "f2aeb3622a8f91fcb481624fd59fad0829c058198a8accd5c54217de2431caa2",
    (1e+300, 200001, 0): "be0d4da6e3385f72160a70a1aba4b900eac75ef925653e6d6a31bcff4cd3281c",
    (1e+300, 200001, 20261018): "be0d4da6e3385f72160a70a1aba4b900eac75ef925653e6d6a31bcff4cd3281c",
}

CLOUD_SIZES = [(2, 0), (2, 1), (2, 2), (2, 19), (3, 12), (5, 14), (17, 3), (1000, 10)]


@st.composite
def cloud_sizes(draw, max_points=2 ** 16):
    """(n_initial, iterations) for n_initial in [2, 5000] and a cloud of at
    most `max_points`: it holds n_initial (2^(k+1) - 1) + 2 points, fewer
    than 2^(k+1) (n_initial + 2), after k iterations."""
    n_initial = draw(st.integers(2, 5000))
    most = (max_points // (n_initial + 2)).bit_length() - 2
    return n_initial, draw(st.integers(0, most))


# exact reals just past 1 and just below 0, which round to 1.0 and to -0.0:
# a Fraction, a Decimal and the nearest long double (1 + 2^-63 and
# -2^-16445 where long double has 64 bits of mantissa)
JUST_OUTSIDE = [Fraction(10 ** 30 + 1, 10 ** 30), Decimal("1.0000000000000000000001"),
                np.nextafter(np.longdouble(1.0), np.longdouble(2.0)), Fraction(-1, 10 ** 400),
                Decimal("-1E-400"), -np.finfo(np.longdouble).smallest_subnormal]

# reals past the doubles, named by their short form rather than 401 digits
HUGE = [pytest.param(10 ** 400, id="10**400"), pytest.param(-10 ** 400, id="-10**400")]
HUGE_ARRAYS = [pytest.param([10 ** 400], id="[10**400]"),
               pytest.param([-10 ** 400], id="[-10**400]"),
               pytest.param([Fraction(10 ** 400)], id="[Fraction(10**400)]")]


class TestParams:
    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-9, float("nan"), float("inf"),
                                     Fraction(1, 10 ** 400), *HUGE, np.timedelta64(1, "s")])
    def test_rejects_nonpositive_p(self, bad):
        # a real whose double is 0 or overflows is no p either, nor is a time
        with pytest.raises(ParameterError):
            PSingularParams(bad)

    def test_masses(self):
        assert P2.left_mass == pytest.approx(1 / 3)
        assert P2.right_mass == pytest.approx(2 / 3)

    def test_config_validation(self):
        # a str, None or complex tolerance is a ParameterError, not a bare
        # TypeError from the comparison, and so is a real whose double is 0
        # or overflows, not an OverflowError, and a time
        for bad in (0.0, -1e-10, float("nan"), float("inf"), "1e-10", None, 1e-10j,
                    Fraction(1, 10 ** 400), 10 ** 400, -10 ** 400, np.timedelta64(1, "s")):
            with pytest.raises(ParameterError, match="tolerance must be a finite positive real"):
                EvalConfig(tolerance=bad)
        for good in (1, np.float32(1e-6), np.int64(2)):
            config = EvalConfig(tolerance=good)
            assert type(config.tolerance) is float and config.tolerance == good


class TestCdf:
    def test_plateau_value(self):
        # fl(1/3) lies below 1/3, off the plateau; 1 - fl(2/3) is its least double
        assert cdf(P1, 1 - 2 / 3) == 0.5
        assert cdf(P1, 2 / 3) == 0.5
        assert cdf(P2, 0.5) == pytest.approx(1 / 3, abs=0)

    def test_endpoints_exact(self):
        for params in (P1, P2, PSingularParams(0.07)):
            assert cdf(params, 0.0) == 0.0
            assert cdf(params, 1.0) == 1.0

    def test_quarter_is_one_third(self, oracle):
        # 1/4 = 0.020202..._3; the exact oracle solves its cycle
        assert oracle.cdf(oracle.Family(1.0), 0.25) == (Fraction(1, 3), Fraction(1, 3))
        assert cdf(P1, 0.25) == pytest.approx(1 / 3, abs=1e-10)

    def test_one_ninth_p2(self):
        # two left branches: 1/(p+1)^2, at the least double >= 1/9 (fl(1/9)
        # lies below 1/9, off the level-2 plateau)
        assert cdf(P2, math.nextafter(1 / 9, 1.0)) == pytest.approx(1 / 9, abs=1e-12)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
    def test_domain_error(self, x):
        with pytest.raises(DomainError):
            cdf(P1, x)

    def test_reported_bound_honored(self):
        # hard point: irrational inside the Cantor set forces truncation
        x = 0.5 * (math.sqrt(5) - 1) % (1 / 3)
        value, bound = cdf_with_bound(P2, x, EvalConfig(tolerance=1e-8))
        tight, _ = cdf_with_bound(P2, x, EvalConfig(tolerance=1e-14))
        assert abs(value - tight) <= bound + 1e-13
        assert bound <= 1e-8

    def test_vectorized_matches_scalar(self, twin_params, twin_points):
        for params in twin_params:
            vec = cdf_many(params, twin_points)
            np.testing.assert_array_equal(vec, [cdf(params, x) for x in twin_points])

    @given(x=st.floats(min_value=0.0, max_value=1.0),
           y=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, x, y):
        lo, hi = min(x, y), max(x, y)
        assert cdf(P2, lo) <= cdf(P2, hi) + 2e-10

    @given(x=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_functional_equation_scaling(self, x):
        assert cdf(P2, x / 3.0) == pytest.approx(cdf(P2, x) / 3.0, abs=2e-10)

    @given(x=st.floats(min_value=0.0, max_value=2 / 3))
    @settings(max_examples=200, deadline=None)
    def test_functional_equation_reflection(self, x):
        cfg = EvalConfig(tolerance=1e-10 / 3.0)
        assert cdf(P2, 1.0 - x, cfg) == pytest.approx(1.0 - 2.0 * cdf(P2, x, cfg), abs=2e-10)


class TestDescent:
    @pytest.mark.parametrize("few", FEW_LIVE)
    @pytest.mark.parametrize("tol_f,tol_j", STOP_MODES)
    def test_twins_agree_bit_for_bit(self, monkeypatch, twin_params, twin_points, tol_f, tol_j,
                                     few):
        # F, J and both error bounds, from the scalar and the vector loop,
        # whose pool of live points after the head walks on in numpy while
        # it holds more than `few` points, then in the scalar loop
        monkeypatch.setattr(distribution, "_FEW", few)
        for params in twin_params:
            vec, scalar = twins(params, twin_points, tol_f, tol_j)
            np.testing.assert_array_equal(vec, scalar)

    @given(x=st.floats(min_value=0.0, max_value=1.0),
           p=st.sampled_from([0.01, 0.5, 1.0, 2.0, 100.0]), tail=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_twins_agree_on_any_double(self, x, p, tail):
        params = PSingularParams(p)
        # the last group holds the value: a point the vector walk does not
        # carry comes again in the scalar loop's group, one live after the
        # head in the pool's
        vec = gather(_descend_many(params, [x], 1e-10, tail=tail), [x], tail)
        assert vec[:, 0].tolist() == list(_descend(params, x, 1e-10, tail=tail))

    @given(data=st.data(), xs=st.lists(st.floats(min_value=0.0, max_value=1.0),
                                       min_size=1, max_size=64),
           p=st.sampled_from([0.01, 0.5, 1.0, 7.0, 100.0]),
           reads=st.sampled_from(["F", "J", "FJ"]), chunk=st.sampled_from([4, 16, _CHUNK]))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.parametrize("few", FEW_LIVE)
    def test_twins_agree_with_per_point_relative(self, data, xs, p, reads, chunk, few):
        # F's walk and the tail walk, whose head leaves each point in its
        # leading run, on the plateau or in F's walk, at any tolerance,
        # the MRL's walk on its relative test; small slices send the points
        # through the jump table, a `_CHUNK` slice steps through the head,
        # and the pool walks on in numpy while it holds more than `few`
        # points, then in the scalar loop
        params = PSingularParams(p)
        tol = data.draw(st.sampled_from([1e-6, 1e-10, 1e-12, 1e-10 * 100 / 101, 1e-13]))
        args, rows = (tol, reads, data.draw(st.booleans())), read_rows(reads)
        with mock.patch.object(distribution, "_CHUNK", chunk), \
                mock.patch.object(distribution, "_FEW", few):
            vec = gather(_descend_many(params, xs, *args), xs, args[2])[rows]
        np.testing.assert_array_equal(bits(vec), bits(scalar_rows(params, xs, *args)[rows]))

    def test_twins_share_one_signature(self):
        # the arguments after the point, with their defaults, so that the
        # two loops cannot drift apart
        def tail(fn):
            return list(inspect.signature(fn).parameters.values())[2:]

        assert tail(_descend) == tail(_descend_many)
        assert [arg.name for arg in tail(_descend)] == ["tol", "reads", "tail"]

    @pytest.mark.parametrize("tail", [False, True])
    def test_half_ends_on_the_plateau(self, twin_params, tail):
        # 1/2 is the ratio 1/2, whose 3d/4 rounds down to the plateau's one
        # numerator: the walk ends there, with bound 0, at once or after
        # the tail walk's reflection onto 1/2, whatever it reads; there
        # S'(1/2) = F(1/2) and K'(1/2) = J(1/2)
        for params in twin_params:
            q = params.left_mass
            plateau = (q, 0.0, i1_closed_form(params) + (0.5 - ONE_THIRD) * q, 0.0)
            for reads in ("F", "J", "FJ"):
                assert _descend(params, 0.5, 1e-10, reads, tail) == plateau

    @pytest.mark.parametrize("x", [0.25, 0.75])
    @pytest.mark.parametrize("p", [0.01, 1.0, 100.0, 1e4, 1e6])
    def test_walk_ends_at_three_quarters(self, p, x):
        # 3/4 = 0.2020..._3 is the fixed point of the right step y -> 3(1-y),
        # where the float walk cycles in place; it ends there with bound 0,
        # as does 1/4 one left step before.  The exact values solve the step
        # equations: F(3/4) = 1 - r F(3/4) and, with J's fused right step,
        # J(3/4) = c + 3/4 + (r/3) J(3/4) for c = J(2/3) - 2/3 - p I1
        params = PSingularParams(p)
        p = Fraction(p)
        q, r = 1 / (p + 1), p / (p + 1)
        i1 = (p + 2) / (6 * (p + 1) * (2 * p + 1))
        c = i1 + q / 3 - Fraction(2, 3) - p * i1
        f, j = 1 / (1 + r), (c + Fraction(3, 4)) / (1 - r / 3)
        if x == 0.25:
            f, j = q * f, q * j / 3
        value, bound = cdf_with_bound(params, x)
        integral = cdf_integral(params, x)
        assert abs(Fraction(value) - f) <= 1e-15 and bound == 0.0
        assert abs(Fraction(integral.value) - j) <= 1e-15 and integral.error_bound == 0.0
        assert cdf_many(params, [x])[0] == value
        assert cdf_integral_many(params, [x])[0] == integral.value

    def test_every_walk_ends(self, deadline):
        # p and the tolerance across their range, down to the least
        # subnormal, at points around 3/4, subnormals, the endpoints and
        # uniform points: every evaluator returns (the proof is in
        # `_descend`) well within the deadline, and each vector twin equals
        # its scalar
        xs = np.concatenate(([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-20,
                              1 / 36, 1 / 12, 0.25, 1 / 3, 2 / 3, 1 - 2 ** -53, 1.0],
                             np.nextafter(0.75, [0.0, 1.0]), 0.75 + np.arange(-3, 4) * 2 ** -53,
                             np.random.default_rng(13).random(28)))
        scalars = [lambda P, x, c: cdf_with_bound(P, x, c)[0],
                   lambda P, x, c: cdf_integral(P, x, c).value,
                   lambda P, x, c: mrl(P, x, c).value, expected_payoff]
        vectors = [cdf_many, cdf_integral_many, mrl_many, payoff_curve]
        with deadline(5):
            for p in (5e-324, 1e-300, 1e-6, 1.0, 1e4, 1e6, 1e300, 1.7e308):
                params = PSingularParams(p)
                for tol in (5e-324, 1e-300, 1e-10, 0.5):
                    config = EvalConfig(tol)
                    for x in xs.tolist():
                        assert cdf_with_bound(params, x, config)[1] <= tol
                        survival(params, x, config)
                    for scalar, vector in zip(scalars, vectors):
                        np.testing.assert_array_equal(
                            bits(vector(params, xs, config)),
                            bits([scalar(params, x, config) for x in xs.tolist()]))

    @given(x=st.floats(min_value=0.0, max_value=1.0), p=st.sampled_from([0.01, 1.0, 7.0, 100.0]),
           reads=st.sampled_from(["F", "J", "FJ"]), tail=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_j_bound_within_f_bound(self, x, p, reads, tail):
        # every step scales J's bracket by at most F's factor, and y <= 1,
        # so a test on F's bracket alone bounds J as well
        _, f_bound, _, j_bound = _descend(PSingularParams(p), x, 1e-10, reads, tail)
        assert j_bound <= f_bound

    @pytest.mark.parametrize("p,x,values", [
        (0.01, 0.3, (0.019512668673370783, 0.36902945208760485, 8.39237338085833e-12,
                     0.002160224828730127)),
        (0.01, 0.4, (0.009900990099009901, 0.5950980392156862, 0.0, 0.002356823917685886)),
        (0.01, 1 - 1e-9, (0.008277399150406683, 9.87347154111631e-10, 0.0,
                          8.172666486427405e-12)),
        (1.0, 0.3, (0.6000000000349246, 0.4476190475929925, 4.342537831093042e-11,
                    0.08057142858265089)),
        (1.0, 1 - 1e-9, (1.9073486328125e-06, 5.698041730992018e-10, 0.0,
                         1.953124942808727e-12)),
        (100.0, 0.3, (0.9901951267315587, 0.45120053821420664, 2.0834515475645127e-11,
                      0.13403297223557184)),
        (100.0, 0.4, (0.9900990099009901, 0.35124378109452736, 0.0, 0.13910644795822866)),
        (100.0, 1 - 1e-9, (4.617416112411561e-15, 3.579166901973728e-10, 0.0,
                           4.6174159772047004e-24))])
    def test_reflected_quantities_pinned(self, p, x, values):
        # survival, m with its bound and the payoff, on both branches of
        # 1/3 and near 1; each value is within its bound, or the
        # tolerance, of the exact oracle
        params = PSingularParams(p)
        m = mrl(params, x)
        assert (survival(params, x), m.value, m.error_bound, expected_payoff(params, x)) == values

    @pytest.mark.parametrize("p", [0.01, 100.0])
    def test_branch_quantities_across_chunks(self, p):
        # one descent over both branches of mrl_many and payoff_curve, over
        # three slices, equals the scalars; a 2-D input keeps its shape
        params = PSingularParams(p)
        xs = np.random.default_rng(11).random(2 * _CHUNK + 1000)
        m, pay = mrl_many(params, xs), payoff_curve(params, xs)
        np.testing.assert_array_equal(bits(m), bits([mrl(params, x).value for x in xs.tolist()]))
        np.testing.assert_array_equal(bits(pay), bits([expected_payoff(params, x)
                                                       for x in xs.tolist()]))
        square = xs[:1200].reshape(40, 30)
        np.testing.assert_array_equal(bits(mrl_many(params, square)), bits(m[:1200].reshape(40, 30)))
        np.testing.assert_array_equal(bits(payoff_curve(params, square)),
                                      bits(pay[:1200].reshape(40, 30)))

    def test_twins_agree_across_chunks(self):
        # three slices: one group per slice, then the pooled tail's two,
        # the scalar loop's for its last few points and numpy's
        xs = np.random.default_rng(5).random(2 * _CHUNK + 1000)
        groups = list(_descend_many(P2, xs, 1e-10))
        assert [isinstance(at, slice) for at, *_ in groups] == [True] * 3 + [False] * 2
        f = gather(groups, xs)[0]
        np.testing.assert_array_equal(f[::997], [cdf(P2, x) for x in xs[::997]])

    @pytest.mark.parametrize("chunk", [1, 7, 8, 9, 100_000])
    @pytest.mark.parametrize("tol_f,tol_j", STOP_MODES)
    def test_pooled_twins_agree_bit_for_bit(self, monkeypatch, twin_params, twin_points,
                                            tol_f, tol_j, chunk):
        # slices of `chunk` points: an input longer than one slice jumps
        # every slice's head through the table and walks the pool whenever
        # it fills, and these pooled tails are compared with the scalar
        # loop; slices of 100,000 points hold the whole input, which steps
        # through its head, without a table, and walks its pool once.
        # numpy walks a level only while more than `_FEW` points are live
        pools, levels = [], []
        descend_slice, goes_on = distribution._descend_slice, distribution._goes_on

        def logged_pool(walk, idx, m, state):
            pools.append(idx.size)
            yield from descend_slice(walk, idx, m, state)

        def logged_level(walk, m, state):
            levels.append(m.size)
            return goes_on(walk, m, state)

        def no_table(params, tail):
            raise AssertionError("an input of one slice built a jump table")

        monkeypatch.setattr(distribution, "_CHUNK", chunk)
        monkeypatch.setattr(distribution, "_descend_slice", logged_pool)
        monkeypatch.setattr(distribution, "_goes_on", logged_level)
        if chunk == 100_000:
            monkeypatch.setattr(distribution, "_jump_table", no_table)
        for params in twin_params:
            pools.clear()
            vec, scalar = twins(params, twin_points, tol_f, tol_j)
            np.testing.assert_array_equal(bits(vec), bits(scalar))
            walks = len(descents(tol_f, tol_j))
            if chunk == 100_000:
                assert len(pools) == walks
            else:
                # the pool is walked once it holds `chunk` points, and once
                # more after the last slice of each descent
                assert len(pools) >= 2 * walks
                assert sum(size < chunk for size in pools) <= walks
        assert all(size > distribution._FEW for size in levels)

    @pytest.mark.parametrize("chunk", [32, _CHUNK])
    @pytest.mark.parametrize("size", [1, 8, 100_000])
    @pytest.mark.parametrize("tail", [False, True])
    def test_walks_carry_only_what_they_read(self, monkeypatch, twin_params, twin_points,
                                             tail, size, chunk):
        # a walk carries what it reads, in F's walk and in the tail walk
        # alike, and gives the scalar loop's rows for what it carries; a
        # quantity it does not carry is None.  The input is the first
        # `size` twin points, so with slices of 32 points the whole set
        # jumps through the table, and every other input of one slice
        # steps through its head
        monkeypatch.setattr(distribution, "_CHUNK", chunk)
        xs = twin_points[:size]
        for params in twin_params:
            for reads in ("F", "J", "FJ"):
                args = (1e-10, reads, tail)
                groups = list(_descend_many(params, xs, *args))
                one, scalar = gather(groups, xs, tail), scalar_rows(params, xs, *args)
                for name, rows in (("F", slice(0, 2)), ("J", slice(2, 4))):
                    if name in reads:
                        np.testing.assert_array_equal(bits(one[rows]), bits(scalar[rows]))
                    else:
                        assert all(g[rows.start + 1] is None for g in groups)

    @pytest.mark.parametrize("p", [1e-6, 0.01, 1.0, 100.0, 1e6])
    def test_two_vector_paths_one_answer(self, monkeypatch, twin_points, p):
        # the twin points as one input longer than `_CHUNK`, which jumps
        # through the table, cut into inputs of at most `_CHUNK` points,
        # which step through the head, and one at a time through the
        # scalars: every quantity bit for bit the same
        chunk = 64
        monkeypatch.setattr(distribution, "_CHUNK", chunk)
        params = PSingularParams(p)
        for vector, scalar in EVALUATORS:
            whole = vector(params, twin_points)
            parts = np.concatenate([vector(params, twin_points[i:i + chunk])
                                    for i in range(0, twin_points.size, chunk)])
            np.testing.assert_array_equal(bits(whole), bits(parts))
            np.testing.assert_array_equal(
                bits(whole), bits([scalar(params, x) for x in twin_points.tolist()]))

    def test_solver_builds_no_table(self, monkeypatch):
        # a request of solve-price takes a new p, and a table costs more to
        # build than the request: its payoff curve steps through the head,
        # as do the short `mrl_many` and `cdf_many` calls and the
        # uniqueness scan
        def no_table(params, tail):
            raise AssertionError("a short input built a jump table")

        monkeypatch.setattr(distribution, "_jump_table", no_table)
        xs = np.linspace(0.0, 1.0, 200)
        for p in (0.01, 1.0, 100.0):
            params = PSingularParams(p)
            assert len(optimal_price(params, curve_points=200).payoff_curve) == 200
            assert mrl_many(params, xs).shape == cdf_many(params, xs).shape == xs.shape
            assert verify_uniqueness(params, 1000) == 1

    @pytest.mark.parametrize("tail", [False, True])
    def test_jump_table_is_cached_and_read_only(self, tail):
        table = _jump_table(P2, tail)
        assert _jump_table(PSingularParams(2.0), tail) is table
        assert _jump_table(P2, not tail) is not table
        assert not table.flags.writeable
        assert table.shape == (5, 3 ** 8)

    @pytest.mark.parametrize("fn,bound", POOL_BOUNDS)
    def test_pool_memory_is_bounded(self, fn, bound):
        # 2e6 points are 122 slices; the pool is walked whenever it holds
        # _CHUNK points, so the working set beyond the result is a few
        # slices wide however long the input (a pool that kept every
        # survivor to the end peaks at 72 and 125 slice widths here for
        # cdf_many and mrl_many)
        xs = np.random.default_rng(9).random(2_000_000)
        assert peak_beyond_result(fn, xs) <= bound * _CHUNK * xs.itemsize

    @pytest.mark.parametrize("fn,bound", POOL_BOUNDS)
    def test_odd_points_keep_memory_bounded(self, fn, bound):
        # the same input with an odd point in every slice, which rides the
        # slice as a placeholder: no slice copies its state to leave it out
        xs = np.random.default_rng(9).random(2_000_000)
        xs[::_CHUNK] = np.resize(ODD_POINTS, xs[::_CHUNK].size)
        assert peak_beyond_result(fn, xs) <= bound * _CHUNK * xs.itemsize

    def test_odd_points_in_every_slice(self):
        # an odd point in each slice leaves the slice one contiguous group,
        # ended on the plateau, and the scalar loop's later group holds the
        # odd point's value; the twins are compared at the odd points and at
        # every 61st point, where a misplaced group would show
        xs = odd_in_every_slice()
        groups = list(_descend_many(P2, xs, 1e-10))
        assert [at for at, *_ in groups if isinstance(at, slice)] == [
            slice(start, min(start + _CHUNK, xs.size)) for start in range(0, xs.size, _CHUNK)]
        gather(groups, xs)
        at = np.union1d(np.flatnonzero(~carried(xs)), np.arange(0, xs.size, 61))
        assert np.isin(ODD_POINTS, xs[at]).all()
        for p in (1e-6, 0.01, 1.0, 100.0, 1e6):
            params = PSingularParams(p)
            for vector, scalar in EVALUATORS[:4]:
                np.testing.assert_array_equal(bits(vector(params, xs)[at]),
                                              bits([scalar(params, x) for x in xs[at].tolist()]))

    def test_odd_points_alone_skip_the_vector_walk(self, monkeypatch):
        # a short input of the tiny odd doubles only, which the scalar loop
        # walks, leaves no pool to walk
        def refuse(*args):
            raise AssertionError("a pool was walked")

        monkeypatch.setattr(distribution, "_descend_slice", refuse)
        tiny = ODD_POINTS[2:]
        assert not carried(np.array(tiny)).any()
        for vector, scalar in EVALUATORS:
            np.testing.assert_array_equal(bits(vector(P2, tiny)),
                                          bits([scalar(P2, x) for x in tiny]))

    @pytest.mark.parametrize("chunk", [8, _CHUNK])
    def test_ends_skip_the_scalar_loop(self, monkeypatch, chunk):
        # 0 and 1 end in the vector walk with their own values, in a short
        # input and, in 8-point slices, a long one: among carried points
        # they give the scalar loop nothing to walk, and equal their twins
        def refuse(*args):
            raise AssertionError("_Walk.scalar called")

        xs = np.array([0.0, 1.0, 0.5, 1.0, 0.0, 0.25, 1.0, 0.0, 0.9, 0.0, 1.0, 0.1] * 2)
        assert carried(xs[(xs > 0.0) & (xs < 1.0)], tail=True).all()
        expected = [[scalar(P2, x) for x in xs.tolist()] for _, scalar in EVALUATORS]
        monkeypatch.setattr(distribution, "_CHUNK", chunk)
        monkeypatch.setattr(distribution._Walk, "scalar", refuse)
        for (vector, _), values in zip(EVALUATORS, expected):
            np.testing.assert_array_equal(bits(vector(P2, xs)), bits(values))

    @pytest.mark.parametrize("p", [1e-6, 0.01, 1.0, 100.0, 1e6])
    def test_few_live_points_skip_the_vector_walk(self, monkeypatch, p):
        # the payoff curve's 200 prices, and 200 `mrl_many` points whose
        # last, 1 - 2^-53, reflects to 2^-53 and walks some 33 levels past
        # the head, leave only a few points live after it: the scalar loop
        # walks their pool from its head state, with no numpy level, in a
        # group which equals the scalar twins row for row
        def refuse(*args):
            raise AssertionError("a numpy level was walked")

        monkeypatch.setattr(distribution, "_goes_on", refuse)
        params = PSingularParams(p)
        plan = distribution._curve_plan(200)
        deep = np.linspace(0.0, 1.0, 200)
        deep[-1] = 1.0 - 2.0 ** -53
        for xs, args in ((plan, (1e-10, "J", True)), (deep, (1e-10, "FJ", True))):
            points = plan.x if xs is plan else xs
            rows = read_rows(args[1])
            vec = gather(_descend_many(params, xs, *args), points, True)[rows]
            np.testing.assert_array_equal(bits(vec), bits(scalar_rows(params, points, *args)[rows]))
        np.testing.assert_array_equal(bits(payoff_curve(params, plan)),
                                      bits([expected_payoff(params, x) for x in plan.x.tolist()]))
        np.testing.assert_array_equal(bits(mrl_many(params, deep)),
                                      bits([mrl(params, x).value for x in deep.tolist()]))

    def test_pool_hands_its_last_few_points_to_the_scalar_loop(self, monkeypatch):
        # `mrl_many`'s walk on `gap_grid(1000)` at p = 0.01 leaves 306
        # points live after the head: numpy walks their pool while more
        # than `_FEW` are live, and the scalar loop walks the rest from
        # their state, in a group of its own.  0, 1 and the odd points,
        # which the scalar loop walks from the start, are left out, so that
        # every `_walk_from` call is the hand-off's
        params, args = PSingularParams(0.01), (1e-10, "FJ", True)
        xs = gap_grid(1000)
        xs = xs[carried(xs, tail=True)]
        assert live_after_head(xs, True).sum() == 306
        scalar = scalar_rows(params, xs, *args)
        levels, handed = [], []
        goes_on, walk_from = distribution._goes_on, distribution._walk_from

        def logged_level(walk, m, state):
            levels.append(m.size)
            return goes_on(walk, m, state)

        def logged_point(*args):
            handed.append(args[0])
            return walk_from(*args)

        monkeypatch.setattr(distribution, "_goes_on", logged_level)
        monkeypatch.setattr(distribution, "_walk_from", logged_point)
        vec = gather(_descend_many(params, xs, *args), xs, True)
        assert levels[0] == 306 and min(levels) > distribution._FEW
        assert 0 < len(handed) <= distribution._FEW
        np.testing.assert_array_equal(bits(vec), bits(scalar))

    @pytest.mark.parametrize("name,p", list(VECTOR_DIGESTS))
    def test_vector_bytes_are_pinned(self, name, p):
        fn = {fn.__name__: fn for fn, _ in EVALUATORS}[name]
        out = fn(PSingularParams(p), grid_eval_batch())
        assert hashlib.sha256(out.tobytes()).hexdigest() == VECTOR_DIGESTS[name, p]

    @pytest.mark.parametrize("name,points,p", list(SHORT_DIGESTS))
    def test_short_bytes_are_pinned(self, name, points, p):
        fn = {fn.__name__: fn for fn, _ in EVALUATORS}[name]
        out = fn(PSingularParams(p), SHORT_INPUTS[points]())
        assert hashlib.sha256(out.tobytes()).hexdigest() == SHORT_DIGESTS[name, points, p]

    @given(xs=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308,
                                                  1.0 - 2.0 ** -53, ONE_THIRD]),
                                 st.floats(min_value=0.0, max_value=2.0 ** -1000),
                                 st.floats(min_value=0.0, max_value=1.0)),
                       min_size=1, max_size=64),
           log_p=st.floats(min_value=math.log(1e-6), max_value=math.log(1e6)))
    @settings(max_examples=100, deadline=None)
    def test_short_inputs_equal_their_scalars(self, xs, log_p):
        # a short input walks its head through the head table and its pool
        # in the scalar loop or in numpy, with 0 and 1 ended in the vector
        # walk: every evaluator equals its scalar twin bit for bit
        params = PSingularParams(math.exp(log_p))
        for vector, scalar in EVALUATORS:
            np.testing.assert_array_equal(bits(vector(params, xs)),
                                          bits([scalar(params, x) for x in xs]))

    @pytest.mark.parametrize("tail", [False, True])
    def test_head_table_is_shared_by_the_jump_tables(self, tail):
        # each head table is built once, read-only, and holds each cell's
        # kinds of step, which reproduce its multipliers and `_jump_table`'s
        # state columns when its representative numerators step through
        # the head one level at a time: a tail walk's in its leading run
        # (kinds 3-5) until its first reflection, in F's walk after it
        kinds, mult = table = distribution._head_table(tail)
        assert distribution._head_table(tail) is table
        assert not any(arr.flags.writeable for arr in table)
        assert kinds.shape == (8, 3 ** 8) and kinds.dtype == np.int8 and mult.shape == (3 ** 8,)
        for p in (0.01, 100.0):
            params = PSingularParams(p)
            walk = distribution._Walk(params, 1.0, "FJ", tail)
            m = ((np.arange(3 ** 8) + 0.5) * (2.0 ** 63 / 3 ** 8)).astype(np.int64)
            state, levels = np.repeat(walk.origin, m.size, axis=1), []
            run = np.full(m.size, tail)
            for _ in range(8):
                levels.append(distribution._kinds(m) + 3 * run)
                run &= levels[-1] == 3
                distribution._step(walk, m, state, levels[-1])
            columns = _jump_table(params, tail)
            np.testing.assert_array_equal(kinds, levels)
            np.testing.assert_array_equal(bits(columns), bits(state))
            exponent = (~np.isin(levels, [1, 4])).sum(axis=0)
            np.testing.assert_array_equal(np.abs(mult), 3 ** exponent)
            # only the cell 0 is still in its leading run after the head
            assert np.flatnonzero(np.array(levels[-1]) == 3).tolist() == ([0] if tail else [])

    @pytest.mark.parametrize("size", [len(BRANCH_EDGES), 2 * _CHUNK + len(BRANCH_EDGES)])
    @pytest.mark.parametrize("p", [1e-300, 1e-6, 1.0, 1e6, 1e300])
    def test_tail_walk_at_the_edges(self, p, size):
        # the tail walk gives the scalars' values bit for bit on both sides
        # of 1/3, where it reflects at once or after its leading run, and at
        # the ends, where m = 0 (F(1 - x) underflows at p = 1e300) or m(0)
        # = E[X]; the longer input repeats the edges through three slices
        # of the jump table's path
        params, xs = PSingularParams(p), np.resize(BRANCH_EDGES, size)
        np.testing.assert_array_equal(bits(payoff_curve(params, xs)),
                                      bits([expected_payoff(params, x) for x in xs.tolist()]))
        np.testing.assert_array_equal(bits(mrl_many(params, xs)),
                                      bits([mrl(params, x).value for x in xs.tolist()]))

    def test_kinds_are_the_searchsorted_kinds(self):
        # the step kinds by one division, against the searchsorted over the
        # plateau's edges that it replaces, on the edges and at random
        # numerators 0 <= M < 2^63
        edges = np.array([distribution._LO, distribution._HI + 1])
        m = np.concatenate((
            [0, distribution._LO - 1, distribution._LO, distribution._HI, distribution._HI + 1,
             distribution._M34, distribution._MASK],
            np.random.default_rng(23).integers(0, distribution._MASK, 100_000, endpoint=True)))
        kinds = distribution._kinds(m)
        assert kinds.dtype == np.intp
        np.testing.assert_array_equal(kinds, np.searchsorted(edges, m, side="right"))
        assert kinds[:7].tolist() == [0, 0, 1, 1, 2, 2, 2]

    @pytest.mark.parametrize("fn", [cdf_many, cdf_integral_many, mrl_many, payoff_curve])
    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.1])
    def test_array_domain_error(self, fn, bad):
        with pytest.raises(DomainError):
            fn(PSingularParams(0.01), [0.2, 0.5, bad])

    @pytest.mark.parametrize("fn", [
        cdf, cdf_with_bound, survival, cdf_integral, mrl, gmrl, expected_payoff,
        cdf_many, cdf_integral_many, mrl_many, payoff_curve], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("bad", ["0.5", b"0.5", None, 0.5j, [0.2, "0.5"], np.complex128(0.5),
                                     np.array(["0.5"], dtype=object),
                                     np.array([1], dtype="timedelta64[s]"),
                                     np.array([1], dtype="datetime64[s]"),
                                     np.array([np.timedelta64(1, "s")], dtype=object),
                                     np.array([np.datetime64(1, "s")], dtype=object),
                                     np.timedelta64(1, "s"), np.datetime64(1, "s"),
                                     Decimal("NaN"), Decimal("sNaN"), [Decimal("NaN")],
                                     [Decimal("sNaN")], [[0.5], [0.2, 0.3]], *HUGE, *HUGE_ARRAYS],
                             ids=repr)
    def test_non_real_point_domain_error(self, fn, bad):
        # a str, bytes, None, a complex or a time is no point of [0, 1], for
        # the scalar and the vector evaluators alike (numpy would parse a
        # str, also as the element of an object array, orders its complex
        # scalars, counts a time's ticks and registers np.timedelta64 as a
        # numbers.Real), nor is a Decimal NaN, which no comparison orders and
        # sNaN no float holds, a real past the doubles, which float() and
        # numpy's cast refuse, or a ragged list, which numpy cannot shape
        with pytest.raises(DomainError):
            fn(P1, bad)

    @pytest.mark.parametrize("fn", [cdf, cdf_with_bound, survival, cdf_integral, mrl, gmrl,
                                    expected_payoff], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("points", [np.array([0.2, 0.5]), np.array([0.0, 0.0]),
                                        np.array([[0.5]])], ids=repr)
    def test_scalar_of_an_array_domain_error(self, fn, points):
        # an array of points is no point of [0, 1] for a scalar evaluator,
        # rather than numpy's ValueError on its truth value
        with pytest.raises(DomainError):
            fn(P1, points)

    @pytest.mark.parametrize("fn,scalar", EVALUATORS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("bad", JUST_OUTSIDE, ids=repr)
    def test_exact_points_just_outside(self, fn, scalar, bad):
        # a real just past either end of [0, 1] whose double is 0.0 or 1.0
        # is no point, for the scalar and the vector evaluators alike, in an
        # object and in a long-double array
        assert float(bad) in (0.0, 1.0)
        with pytest.raises(DomainError):
            scalar(P1, bad)
        with pytest.raises(DomainError):
            fn(P1, [0.5, bad])

    @pytest.mark.parametrize("fn,scalar", EVALUATORS[:4], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("exact", [Fraction(1, 2), Decimal("0.25")], ids=repr)
    def test_exact_real_points(self, fn, scalar, exact):
        # a Fraction or a Decimal is a real point, alone and in an object
        # array, and evaluates at the double nearest it
        x = float(exact)
        np.testing.assert_array_equal(bits(fn(P1, [exact, 0.75])), bits(fn(P1, [x, 0.75])))
        assert bits(scalar(P1, exact)) == bits(scalar(P1, x))


class TestSurvival:
    def test_plateau(self):
        assert survival(P1, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert survival(P2, 1 - 2 / 3) == pytest.approx(2 / 3, abs=1e-12)

    def test_right_endpoint(self):
        assert survival(P1, 1.0) == 0.0
        assert survival(P2, 1.0) == 0.0

    def test_complement(self):
        for x in (0.1, 0.3, 0.7, 0.9):
            assert survival(P2, x) == pytest.approx(1.0 - cdf(P2, x), abs=1e-9)


class TestSample:
    def test_deterministic_given_seed(self):
        a = sample(P2, 42, 1000)
        b = sample(P2, 42, 1000)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample(P2, 43, 1000))

    def test_support(self):
        draws = sample(P2, 1, 5000)
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_draws_avoid_construction_gaps(self):
        # draws concentrate on the Cantor set, so none may land strictly
        # inside a removed middle-third gap (digit-by-digit extraction is
        # too float-fragile for this; interval membership is robust)
        draws = sample(PSingularParams(0.3), 5, 2000)
        for a, b in gap_intervals(8):
            inside = (draws > a + 1e-12) & (draws < b - 1e-12)
            assert not np.any(inside)

    @pytest.mark.parametrize("p,expected", [(1.0, 0.5), (2.0, 0.6)])
    def test_mean(self, p, expected):
        n = 10 ** 6
        draws = sample(PSingularParams(p), 2024, n)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - expected) <= 3.0 * se

    def test_dkw_band_against_cdf(self):
        assert check_dkw(P1, EvalConfig(), 99).passed

    @pytest.mark.parametrize("p", [0.5, 2.0])
    def test_dkw_band_off_the_classical_case(self, p):
        # at these p the largest jump of F between adjacent doubles is
        # below the band, so a double sampler can meet it
        assert check_dkw(PSingularParams(p), EvalConfig(), 99).passed

    def test_leading_run_of_left_steps(self):
        # at p=0.01 most of the mass sits in long runs of left steps:
        # F(3^-k) = q^k is 0.370 at k=100 and 0.050 at k=300.  F is flat on
        # the gap (3^-k, 2 3^-k), so the share of draws below its midpoint
        # estimates q^k whichever way a draw near 3^-k rounds
        n, params = 10 ** 6, PSingularParams(0.01)
        draws = sample(params, 7, n)
        for k in (1, 50, 100, 300):
            qk = params.left_mass ** k
            share = np.count_nonzero(draws < 1.5 * 3.0 ** -k) / n
            assert abs(share - qk) <= 4.0 * math.sqrt(qk * (1.0 - qk) / n), k

    @pytest.mark.parametrize("p", [1e-300, 5e-324, 1e300, 1.7976931348623157e308])
    def test_extreme_p(self, p):
        # r so small that every run of left steps outlasts the leading-run
        # table and 3^-j is 0 (at 5e-324 log q is clamped, with no overflow
        # warning), or q so small that every step goes right
        draws = sample(PSingularParams(p), 3, 1000)
        assert np.all(np.isfinite(draws)) and draws.min() >= 0.0 and draws.max() <= 1.0

    @pytest.mark.parametrize("p", [0.01, 1.0, 100.0, 1e6])
    def test_draws_within_ulps_of_their_cell(self, p):
        # rebuilt from the same raw 64-bit outputs, the leading run j from
        # row 0 as `sample` computes it and each word from its column
        # u >> 52 and its coin u < B_c in rows 1-3, the exact midpoint of
        # the 36-level cell they pick is within 3 ulps of every draw
        params, n, seed = PSingularParams(p), 1000, 1
        table = _alias_table(params)
        bound, words = table[0].tolist(), table_words(table)
        k = int(table[0].size).bit_length() - 1
        maps = [word_map(w, k) for w in range(1 << k)]
        raw = distribution.seeded_rng(seed).bit_generator.random_raw(4 * n).reshape(4, n)
        log_q = min(-math.log1p(p), -1e-300)
        runs = np.floor(np.log1p((raw[0] >> 11).astype(float) * -2.0 ** -53) / log_q)
        draws = sample(params, seed, n).tolist()
        for i, (x, j) in enumerate(zip(draws, runs.astype(int).tolist())):
            a = Fraction(1, 3 ** j)
            s = -a / 3
            for u in raw[1:, i].tolist():
                c = u >> 52
                a_w, s_w = maps[c if u < bound[c] else words[2 * c + 1]]
                a, s = a + s * a_w, s * s_w
            mid = a + s / 2
            assert abs(Fraction(x) - mid) <= 3 * math.ulp(float(mid)), (i, j)

    @pytest.mark.parametrize("p", [0.01, 1.0, 100.0, 1e-300, 1e300])
    def test_alias_table_probabilities(self, p):
        # word w comes from its own column w with probability P_w and from
        # every column c that holds it as its alias with 1 - P_c, each
        # column 2^-k; P_c is the share (B_c - c 2^52) / 2^52 of the
        # column's raw outputs u < B_c
        params = PSingularParams(p)
        table = _alias_table(params)
        bound, words = table[0], table_words(table)
        size = bound.size
        k = int(size).bit_length() - 1
        assert bound.dtype == np.uint64 and words[0::2] == list(range(size))
        implied = [Fraction(0)] * size
        for c, b in enumerate(bound.tolist()):
            assert c << 52 <= b <= min((c + 1) << 52, 2 ** 64 - 1)
            own = Fraction(b - (c << 52), 1 << 52)
            implied[c] += own
            implied[words[2 * c + 1]] += 1 - own
        q, r = Fraction(params.left_mass), Fraction(params.right_mass)
        by_count = [q ** (k - c) * r ** c for c in range(k + 1)]
        exact = [by_count[bin(w).count("1")] for w in range(size)]
        tv = math.fsum(abs(float(m / size - e)) for m, e in zip(implied, exact)) / 2
        assert tv <= 1e-13

    @pytest.mark.parametrize("p", [0.01, 1.0, 100.0, 1e-300, 1e300])
    def test_alias_table_maps(self, p):
        # each index's maps within an ulp of its word's exact composition
        # (a_w, s_w): OA = 1 - a_w/3, OS = -s_w/3, AW = a_w, SW = s_w and
        # LAST = a_w + s_w/2
        table = _alias_table(PSingularParams(p))
        k = int(table[0].size).bit_length() - 1
        for i, (w, *got) in enumerate(zip(table_words(table), *(m.tolist() for m in table[1:]))):
            a, s = word_map(w, k)
            for value, exact in zip(got, (1 - a / 3, -s / 3, a, s, a + s / 2)):
                assert abs(Fraction(value) - exact) <= math.ulp(float(exact)), (i, w)

    def test_alias_table_is_cached_and_read_only(self):
        table = _alias_table(P2)
        assert _alias_table(PSingularParams(2.0)) is table
        assert not any(arr.flags.writeable for arr in table)

    def test_draws_in_blocks(self):
        # the first block's draws do not depend on how many blocks follow,
        # and the working set is the result plus a fixed number of blocks
        # (about 10), not a multiple of n
        n = 16 * _SAMPLE_BLOCK
        head = sample(P1, 3, _SAMPLE_BLOCK)
        tracemalloc.start()
        try:
            draws = sample(P1, 3, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(draws[:_SAMPLE_BLOCK], head)
        assert peak <= draws.nbytes + 16 * 8 * _SAMPLE_BLOCK

    @pytest.mark.parametrize("p,n,seed", list(SAMPLE_DIGESTS))
    def test_bytes_are_pinned(self, p, n, seed):
        draws = sample(PSingularParams(p), seed, n)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == SAMPLE_DIGESTS[p, n, seed]

    def test_leading_run_table(self):
        # the table clipped at its last entry, the first 0.0, is 3^-j
        # correctly rounded for every run j; np.power is not, first at j = 21
        js = np.append(np.arange(2000), np.iinfo(np.int64).max)
        assert _LEAD[-1] == 0.0 < _LEAD[-2] and not _LEAD.flags.writeable
        exact = [float(Fraction(1, 3 ** j)) for j in np.minimum(js, _LEAD.size - 1).tolist()]
        np.testing.assert_array_equal(bits(_LEAD.take(js, mode="clip")), bits(exact))

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            sample(P1, 0, 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            sample(P1, -1, 10)


class TestPointCloud:
    def test_initialization_only(self):
        cloud = point_cloud(P1, n_initial=2, iterations=0)
        assert cloud.points == [(0.0, 0.0), (1 - 2 / 3, 0.5), (2 / 3, 0.5), (1.0, 1.0)]

    def test_endpoints_and_monotone(self):
        cloud = point_cloud(P2, n_initial=50, iterations=6)
        assert (cloud.x[0], cloud.F[0]) == (0.0, 0.0)
        assert (cloud.x[-1], cloud.F[-1]) == (1.0, 1.0)
        assert np.all(np.diff(cloud.x) > 0)
        assert np.all(np.diff(cloud.F) >= 0)

    def test_matches_recursive_evaluator(self):
        cloud = point_cloud(P1, n_initial=40, iterations=7)
        dev = np.abs(cdf_many(P1, cloud.x) - cloud.F)
        assert dev.max() <= 1e-10

    @pytest.mark.parametrize("p,worst", [(0.001, 9.66e-7), (0.01, 7.06e-5), (0.03, 3.21e-4),
                                         (0.1, 3.59e-4), (0.3, 9.75e-6), (1.0, 0.0), (100.0, 0.0)])
    def test_heights_at_the_clouds_own_doubles(self, p, worst):
        # every pair on the plateau's doubles is F exactly; off it, for p >= 1
        # every pair is within 1e-10, and for p < 1 the gap stays within
        # twice its measured worst: images whose doubles round off their
        # sub-plateau, near 1 and in their x/3 images (ROADMAP item 10)
        params = PSingularParams(p)
        cloud = point_cloud(params, 1000, 10)
        F = cdf_many(params, cloud.x)
        on = (cloud.x >= 1.0 - TWO_THIRDS) & (cloud.x <= TWO_THIRDS)
        np.testing.assert_array_equal(cloud.F[on], F[on])
        assert np.abs(cloud.F - F).max() <= max(2 * worst, 1e-10)

    @pytest.mark.parametrize("n_initial,iterations", CLOUD_SIZES)
    @pytest.mark.parametrize("p", [0.01, 0.3, 1.0, 7.3, 100.0, 1e-6, 1e6, 1e-300, 1e300])
    def test_byte_identical_to_sorting_oracle(self, p, n_initial, iterations):
        # the sort finds the iteration's order, and no two of its doubles
        # are equal: x strictly increases, at the closed-form size
        params = PSingularParams(p)
        x, F = cloud_oracle(params, n_initial, iterations)
        cloud = point_cloud(params, n_initial, iterations)
        assert cloud.x.tobytes() == x.tobytes()
        assert cloud.F.tobytes() == F.tobytes()
        assert np.all(np.diff(cloud.x) > 0)
        assert len(cloud) == n_initial * (2 ** (iterations + 1) - 1) + 2

    @given(p=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), size=cloud_sizes())
    @settings(max_examples=150, deadline=None)
    def test_byte_identical_to_sorting_oracle_at_any_p(self, p, size):
        # p log-uniform over [1e-300, 1e300], clouds of up to 2^16 points
        self.test_byte_identical_to_sorting_oracle(p, *size)

    def test_memory(self):
        # one buffer per array and a few temporaries of the last
        # iteration; what stays is the buffers.
        # A short cloud first makes the allocations of a first call, which
        # would otherwise count as held when this test runs alone
        point_cloud(P1, 1000, 2)
        tracemalloc.start()
        try:
            cloud = point_cloud(P1, 1000, 10)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = cloud.x.nbytes + cloud.F.nbytes
        assert peak <= 1.1 * result
        assert held <= 1.01 * result

    def test_cached_plan_memory(self):
        # a shape whose plan is cached computes F alone, in one buffer
        point_cloud(P1, 1000, 10)
        tracemalloc.start()
        try:
            cloud = point_cloud(PSingularParams(7.3), 1000, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * cloud.F.nbytes

    def test_plans_across_shapes_and_refusals(self):
        # two shapes alternate, each p between a refused call at a lower cap
        # and its own: every cloud is the sorting oracle's, byte for byte
        for p in (0.01, 7.3, 1e300):
            params = PSingularParams(p)
            for n_initial, iterations in ((10, 6), (1001, 4)):
                with pytest.raises(ResourceLimitError, match=f"after iteration 2 of {iterations}"):
                    point_cloud(params, n_initial, iterations, max_points=5 * n_initial)
                x, F = cloud_oracle(params, n_initial, iterations)
                cloud = point_cloud(params, n_initial, iterations)
                assert cloud.x.tobytes() == x.tobytes()
                assert cloud.F.tobytes() == F.tobytes()

    def test_x_is_shared_and_read_only(self):
        # one shape's x is one array at every p; F is each call's own
        clouds = [point_cloud(PSingularParams(p), 40, 7) for p in (0.01, 7.3, 7.3)]
        assert all(np.shares_memory(clouds[0].x, cloud.x) for cloud in clouds)
        assert not any(np.shares_memory(a.F, b.F) or np.shares_memory(a.F, b.x)
                       for i, a in enumerate(clouds) for b in clouds[i + 1:])
        with pytest.raises(ValueError, match="read-only"):
            clouds[0].x[0] = 1.0

    def test_refused_cloud_memory(self):
        # the cap is checked on the closed-form sizes before the plan or
        # F is allocated, so a refusal costs no array at all
        point_cloud(P1, 1000, 2)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="127002 after iteration 6 of 17"):
                point_cloud(P1, 1000, 17, max_points=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_cap_on_the_iteration_after_a_full_cloud(self):
        # a cap of the tenth cloud's size (or one more) accepts it and
        # refuses the eleventh, which nearly doubles it; the refusal counts
        # the eleventh exactly
        size = len(point_cloud(P1, 1000, 10))
        for cap in (size, size + 1):
            with pytest.raises(ResourceLimitError,
                               match=rf"cap of {cap} points \(4095002 after iteration 11 of 11\)"):
                point_cloud(P1, 1000, 11, max_points=cap)

    @given(p=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), size=cloud_sizes(),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_cap_around_the_oracle_sizes(self, p, size, data):
        # a cap within a few points of one of the sorting oracle's clouds:
        # the call returns the last cloud byte for byte, or is refused at the
        # first cloud over the cap, with that cloud's exact size
        n_initial, iterations = size
        params = PSingularParams(p)
        clouds = list(oracle_clouds(params, n_initial, iterations))
        sizes = [x.size for x, _ in clouds]
        cap = data.draw(st.sampled_from(sizes)) + data.draw(st.integers(-3, 3))
        over = [k for k, n in enumerate(sizes) if n > cap]
        if over:
            k = over[0]
            with pytest.raises(ResourceLimitError) as refusal:
                point_cloud(params, n_initial, iterations, max_points=cap)
            assert str(refusal.value) == (f"point cloud exceeded cap of {cap} points "
                                          f"({sizes[k]} after iteration {k} of {iterations})")
        else:
            x, F = clouds[-1]
            cloud = point_cloud(params, n_initial, iterations, max_points=cap)
            assert cloud.x.tobytes() == x.tobytes()
            assert cloud.F.tobytes() == F.tobytes()

    def test_cap_at_the_exact_size(self):
        # the last iteration maps the n - 2 interior points twice and adds
        # the 1,000 plateau points, with 0 and 1 kept, so its exact size N
        # is 2n + 998; a cap of N is met, N - 1 is not
        n = len(point_cloud(P1, 1000, 9))
        size = len(point_cloud(P1, 1000, 10))
        assert size == 2 * n + 998
        assert len(point_cloud(P1, 1000, 10, max_points=size)) == size
        with pytest.raises(ResourceLimitError,
                           match=rf"cap of {size - 1} points \({size} after iteration 10 of 10\)"):
            point_cloud(P1, 1000, 10, max_points=size - 1)

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            point_cloud(P1, n_initial=1000, iterations=17, max_points=100_000)
        with pytest.raises(ResourceLimitError, match=r"\(8191002 after iteration 12 of 17\)"):
            point_cloud(P1, n_initial=1000, iterations=17)

    def test_resource_cap_on_initial_cloud(self):
        # the 1,002 initial points already exceed a cap of 5
        with pytest.raises(ResourceLimitError, match="1002 after iteration 0 of 0"):
            point_cloud(P1, n_initial=1000, iterations=0, max_points=5)
        assert len(point_cloud(P1, n_initial=1000, iterations=0, max_points=1002)) == 1002

    def test_resource_cap_before_the_initial_cloud(self):
        # refused on its size alone: 10^12 points would not fit in memory
        with pytest.raises(ResourceLimitError, match="1000000000002 after iteration 0 of 0"):
            point_cloud(P1, n_initial=10**12, iterations=0)

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            point_cloud(P1, n_initial=1, iterations=1)
        with pytest.raises(ParameterError):
            point_cloud(P1, n_initial=10, iterations=-1)
        with pytest.raises(ParameterError, match="max_points must be >= 0, got -5"):
            point_cloud(P1, n_initial=10, iterations=2, max_points=-5)


@pytest.mark.parametrize("call,name", [
    (lambda: point_cloud(P1, 10.5, 2), "n_initial"),
    (lambda: point_cloud(P1, 10, 2.0), "iterations"),
    (lambda: point_cloud(P1, 10, 2, max_points=2.5e6), "max_points"),
    (lambda: point_cloud(P1, 10, 2, max_points=None), "max_points"),
    (lambda: point_cloud(P1, 10, 2, max_points="10"), "max_points"),
    (lambda: sample(P1, 0, 2.5), "n"),
    (lambda: sample(P1, 1.5, 10), "seed"),
    (lambda: sample(P1, np.float64(1.0), 10), "seed"),
], ids=["n_initial", "iterations", "float-max_points", "none-max_points", "str-max_points",
        "n", "seed", "numpy-float-seed"])
def test_generators_reject_non_integers(call, name):
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        call()


def test_generators_take_numpy_integers():
    assert point_cloud(P1, np.int64(10), np.int32(2)).x.tobytes() == \
        point_cloud(P1, 10, 2).x.tobytes()
    np.testing.assert_array_equal(sample(P1, np.uint8(3), np.int16(5)), sample(P1, 3, 5))


# every public integer argument: a call taking it, and its least value
INTEGER_ARGS = {
    "n": (lambda v: sample(P1, 0, v), 1),
    "seed": (lambda v: sample(P1, v, 10), 0),
    "n_initial": (lambda v: point_cloud(P1, v, 2), 2),
    "iterations": (lambda v: point_cloud(P1, 10, v), 0),
    "max_points": (lambda v: point_cloud(P1, 10, 2, max_points=v), 0),
    "max_level": (gap_intervals, 1),
    "grid_n": (gap_grid, 0),
    "curve_points": (lambda v: optimal_price(P1, curve_points=v), 0),
}


@pytest.mark.parametrize("name", INTEGER_ARGS)
def test_integer_argument_messages(name):
    call, least = INTEGER_ARGS[name]
    for value, message in ((2.5, f"{name} must be an integer, got 2.5"),
                           (least - 1, f"{name} must be >= {least}, got {least - 1}")):
        with pytest.raises(ParameterError) as exc:
            call(value)
        assert str(exc.value) == message


class TestGapIntervals:
    def test_levels_one_two(self):
        gaps = gap_intervals(2)
        assert gaps == pytest.approx([(1 / 9, 2 / 9), (1 / 3, 2 / 3), (7 / 9, 8 / 9)])

    def test_count(self):
        assert len(gap_intervals(8)) == 2 ** 8 - 1

    @pytest.mark.parametrize("fn", [gap_intervals, gap_grid])
    def test_rejects_non_integer_level_or_size(self, fn):
        with pytest.raises(ParameterError, match="must be an integer, got 2.5"):
            fn(2.5)
        assert len(fn(np.int64(2))) == len(fn(2))

    def test_gap_grid_is_cached_and_read_only(self):
        xs = gap_grid(1000)
        assert gap_grid(1000) is xs
        assert not xs.flags.writeable
        with pytest.raises(ValueError):
            xs[0] = 0.5
        ends = [e for gap in gap_intervals(8) for e in gap]
        np.testing.assert_array_equal(
            xs, np.unique(np.concatenate((np.linspace(0.0, 1.0, 1000), ends, [1 / 3, 2 / 3]))))
        np.testing.assert_array_equal(gap_grid(0), np.unique(ends))
        with pytest.raises(ParameterError):
            gap_grid(-1)

    def test_cdf_constant_on_gaps(self):
        for a, b in gap_intervals(4):
            lo, hi = np.nextafter(a, 1.0), np.nextafter(b, 0.0)
            assert cdf(P2, lo) == pytest.approx(cdf(P2, hi), abs=1e-12)
