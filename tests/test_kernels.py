"""The table kernels of ``rings`` and ``matrices`` against the brute-force
scans in ``table_oracles``: exact answers, on every corpus pair and on
M_2(R) with the ideals M_2(I) for |R| <= 6.  The row scans (list rows
on rings with list mirrors, numpy rows without), the in-place word replay
and the matrix values are also checked on M_2(R) up to 4,096 elements,
where rings keep no list mirrors, and on the opposite rings.  The
``exchange`` verdicts, decided by theorem, are checked on the same rings
and on the opposites of the corpus rings against a witness search for
every element."""

import random

import numpy as np
import pytest

from exlift import exchange as E, matrices as M, rings as R, scans
from exlift.matrices import matrix_ideal

import table_oracles as O
from ring_checks import decode_matrix


def _small_bases(corpus_rings):
    """The corpus rings with at most 6 elements, one per spec."""
    seen = {}
    for entry, ring in corpus_rings:
        if ring.size <= 6:
            seen.setdefault(ring.spec, ring)
    return list(seen.values())


@pytest.fixture(scope="module")
def blocked_pairs(corpus_rings):
    """(name, M_2(R), M_2(I)) for every ideal I of a corpus ring R with
    |R| <= 6: the pairs the blocked stage of a forced m=4 lift runs on."""
    out = []
    for base in _small_bases(corpus_rings):
        mring = R.build_ring(R.MatrixSpec(base.spec, 2))
        for ideal in R.all_ideals(base):
            out.append((f"M_2({base.describe()}) |I|={len(ideal)}", mring,
                        matrix_ideal(mring, base, 2, ideal)))
    return out


def _pairs(corpus_pairs_full, blocked_pairs):
    return ([(name, ring, ideal) for name, ring, ideal, _ in corpus_pairs_full]
            + blocked_pairs)


def test_blocked_pairs_reach_m2_z6(blocked_pairs):
    sizes = {ring.size for _, ring, _ in blocked_pairs}
    assert 1296 in sizes and len(blocked_pairs) >= 12


def test_pair_solve_matches_grid_scan(corpus_rings, blocked_pairs):
    rings = {ring.spec: ring for _, ring in corpus_rings}
    rings.update({ring.spec: ring for _, ring, _ in blocked_pairs})
    rng = random.Random(8)
    found = missed = 0
    for ring in rings.values():
        if ring.size <= 8:
            triples = [(c, d, t) for c in range(ring.size)
                       for d in range(ring.size) for t in range(ring.size)]
        else:
            units = ring.units()
            triples = [(rng.randrange(ring.size), rng.randrange(ring.size),
                        rng.choice((ring.one, rng.randrange(ring.size))))
                       for _ in range(150)]
            # a unit in either slot makes every target reachable
            triples += [(rng.choice(units), rng.randrange(ring.size),
                         rng.randrange(ring.size)) for _ in range(25)]
        for c, d, t in triples:
            want = O.solve_pair_right(ring, c, d, t)
            assert R.solve_pair_right(ring, c, d, t) == want, \
                (ring.describe(), c, d, t)
            found += want is not None
            missed += want is None
    assert found and missed


def _opposite_pairs(corpus_pairs_full):
    """(name, R^op, I) for every corpus pair: I is a two-sided ideal of
    R^op as well."""
    return [(f"op {name}", ring.op(),
             R.Ideal(ring.op(), ideal.members, ideal.generators))
            for name, ring, ideal, _ in corpus_pairs_full]


def test_ideal_witnesses_match_idempotent_loop(corpus_pairs_full,
                                               blocked_pairs):
    # the theorem's verdict against a witness for every element of I
    for name, ring, ideal in (_pairs(corpus_pairs_full, blocked_pairs)
                              + _opposite_pairs(corpus_pairs_full)):
        found = all(O.exchange_witness_ideal(ring, ideal, x) is not None
                    for x in ideal)
        assert E.is_exchange_ideal(ring, ideal) == found, name


def test_unital_witnesses_match_idempotent_loop(corpus_rings, blocked_pairs):
    # the theorem's verdict against a witness for every element of R
    rings = {ring.spec: ring for _, ring in corpus_rings}
    rings.update({ring.op().spec: ring.op() for _, ring in corpus_rings})
    rings.update({ring.spec: ring for _, ring, _ in blocked_pairs})
    for ring in rings.values():
        found = all(O.exchange_witness_unital(ring, a) is not None
                    for a in ring.elements())
        assert E.is_exchange_ring(ring) == found, ring.describe()


def test_quotient_tables_match_coset_loop(corpus_pairs_full, blocked_pairs):
    for name, ring, ideal in _pairs(corpus_pairs_full, blocked_pairs):
        image, section, add, mul, neg = O.quotient_tables(ring, ideal)
        qmap = R.quotient_by(ring, ideal)
        q = qmap.target
        assert np.array_equal(qmap.image, image), name
        assert np.array_equal(qmap.section, section), name
        assert qmap.image.dtype == qmap.section.dtype == np.int64, name
        assert np.array_equal(q.npadd, add), name
        assert np.array_equal(q.npmul, mul), name
        assert np.array_equal(q.npneg, neg), name
        assert (q.zero, q.one) == (image[ring.zero], image[ring.one]), name


def test_matrix_ideal_matches_code_loop(corpus_rings):
    cases = [(base, 2) for base in _small_bases(corpus_rings)]
    cases.append((R.build_ring(R.ZmodSpec(2)), 3))
    for base, k in cases:
        mring = R.build_ring(R.MatrixSpec(base.spec, k))
        zero = R.element_descriptor(base, base.zero)
        for ideal in R.all_ideals(base):
            got = matrix_ideal(mring, base, k, ideal)
            want = O.matrix_ideal_members(mring, base, k, ideal)
            assert got.sorted_members == tuple(want), (base.describe(), k)
            # each generator g of I becomes g*e11
            assert got.generators == tuple(R.element_from_descriptor(
                mring, [[R.element_descriptor(base, g) if i == j == 0 else zero
                         for j in range(k)] for i in range(k)])
                for g in ideal.generators), (base.describe(), k)


def test_list_mirrors_equal_tables(corpus_rings):
    for _, ring in corpus_rings:
        assert ring._mul == [[int(v) for v in row] for row in ring.npmul]
        assert ring._add == [[int(v) for v in row] for row in ring.npadd]
        assert ring._neg == [int(v) for v in ring.npneg]
        assert all(type(v) is int for v in ring._mul[-1])


def test_matrix_tables_match_per_position_build():
    Z, Mat, Tri = R.ZmodSpec, R.MatrixSpec, R.TriangularSpec
    specs = ([Mat(Z(n), 2) for n in range(1, 9)]
             + [Mat(Z(2), 3), Tri(Z(4), 2), Tri(Z(2), 3), Tri(Z(3), 3),
                Mat(Tri(Z(2), 2), 2),
                Mat(R.ProductSpec(Z(2), Z(3)), 2)])
    for spec in specs:
        ring = R.build_ring(spec)
        add, mul, neg, one = O.matrix_like_tables(
            R.build_ring(spec.base), spec.k, isinstance(spec, Tri))
        for got, want in ((ring.npadd, add), (ring.npmul, mul),
                          (ring.npneg, neg)):
            assert got.dtype == want.dtype, spec.describe()
            assert got.flags["C_CONTIGUOUS"], spec.describe()   # row reads
            assert np.array_equal(got, want), spec.describe()
        assert (ring.zero, ring.one) == (0, one), spec.describe()


def _factored_specs():
    """M_2(Z/6), M_2(Z/8), T_3(Z/4) and M_2(T_2(Z/2)): rings above
    ``_LIST_MIRROR_MAX`` elements, which keep per-row factors only."""
    Z, Mat, Tri = R.ZmodSpec, R.MatrixSpec, R.TriangularSpec
    return [Mat(Z(6), 2), Mat(Z(8), 2), Tri(Z(4), 3), Mat(Tri(Z(2), 2), 2)]


def test_factored_ops_match_whole_tables(monkeypatch):
    # scalar ops, rows, columns, differences t - x over all x, idempotents
    # and inverses of each ring and its opposite, read off the factors,
    # against the per-position tables; none of these reads forms a whole
    # table
    monkeypatch.setattr(R, "_BUILD_CACHE", {})
    rng = random.Random(21)
    for spec in _factored_specs():
        ring = R.build_ring(spec)
        add, mul, neg, _ = O.matrix_like_tables(
            R.build_ring(spec.base), spec.k, isinstance(spec, R.TriangularSpec))
        size, one = ring.size, ring.one
        assert size > R._LIST_MIRROR_MAX and ring._mul is None
        for side, table in ((ring, mul), (ring.op(), mul.T)):
            name = side.describe()
            pairs = [(rng.randrange(size), rng.randrange(size))
                     for _ in range(2000)]
            assert [side.mul(a, b) for a, b in pairs] == \
                [int(table[a, b]) for a, b in pairs], name
            assert [side.add(a, b) for a, b in pairs] == \
                [int(add[a, b]) for a, b in pairs], name
            assert [side.neg(a) for a in range(size)] == neg.tolist(), name
            xs = np.arange(size)
            for a in [side.zero, one] + rng.sample(range(size), 200):
                assert np.array_equal(side._mul_array(a), table[a]), (name, a)
                assert np.array_equal(side.op()._mul_array(a), table[:, a]), \
                    (name, a)
                assert np.array_equal(side._sub_array(a, xs), add[a, neg]), \
                    (name, a)
            diag = table[np.arange(size), np.arange(size)]
            assert side.idempotents() == tuple(
                np.flatnonzero(diag == np.arange(size)).tolist()), name
            for u in rng.sample(range(size), 200):
                vs = [int(v) for v in np.flatnonzero(table[u] == one)
                      if table[v, u] == one]
                assert side.inverse(u) == (vs[0] if vs else None), (name, u)
        assert ring._tables == {}, spec.describe()


def test_rings_up_to_1024_elements_hold_their_whole_tables(monkeypatch):
    # formed from the factors when the ring is built, byte for byte the
    # per-position tables, with list mirrors of them
    monkeypatch.setattr(R, "_BUILD_CACHE", {})
    Z, Mat, Tri = R.ZmodSpec, R.MatrixSpec, R.TriangularSpec
    specs = ([Mat(Z(n), 2) for n in range(1, 6)]
             + [Mat(Z(2), 3), Tri(Z(4), 2), Tri(Z(2), 3), Tri(Z(3), 3),
                Tri(Tri(Z(2), 2), 2), Mat(Tri(Z(2), 2), 1)])
    for spec in specs:
        ring = R.build_ring(spec)
        assert ring.size <= R._LIST_MIRROR_MAX, spec.describe()
        assert set(ring._tables) == {"add", "mul", "neg"}, spec.describe()
        add, mul, neg, _ = O.matrix_like_tables(
            R.build_ring(spec.base), spec.k, isinstance(spec, Tri))
        for got, want in ((ring.npadd, add), (ring.npmul, mul),
                          (ring.npneg, neg)):
            assert got.dtype == want.dtype, spec.describe()
            assert got.flags["C_CONTIGUOUS"], spec.describe()
            assert got.tobytes() == want.tobytes(), spec.describe()
        assert ring._mul == mul.tolist() and ring._add == add.tolist()
        assert ring._neg == neg.tolist()
        op = ring.op()
        assert op.npadd is ring.npadd and op._mul == mul.T.tolist()


def test_unit_regular_scan_matches_all_units_scan(corpus_pairs):
    # every d in M_2(I) on the stage ring M_2(R) of every default pair;
    # the larger stage rings are refused by the table guard
    rings, units = {}, {}
    checked = found = 0
    for name, base, ideal, _ in corpus_pairs:
        if base.size ** 4 > 4096:
            continue
        ring = rings.setdefault(base.spec, R.build_ring(
            R.MatrixSpec(base.spec, 2)))
        if ring.spec not in units:
            units[ring.spec] = O.units_and_inverses(ring)
        us, inv = units[ring.spec]
        for d in matrix_ideal(ring, base, 2, ideal):
            want = O.unit_regular_scan_full(ring, d, us, inv)
            assert scans.unit_regular_scan(ring, d) == want, (name, d)
            checked += 1
            found += want is not None
    assert max(ring.size for ring in rings.values()) == 4096
    assert 0 < found < checked


def test_units_match_carrier_loop(corpus_rings, blocked_pairs, scan_rings):
    # inverses by a list row with mirrors, by an array row test without:
    # M_2(Z/6), M_2(Z/8), M_2(T_2(Z/2)) and their opposites
    rings = {ring.spec: ring for _, ring in corpus_rings}
    rings.update({ring.spec: ring for _, ring, _ in blocked_pairs})
    factored = [ring for ring in scan_rings if ring._mul is None]
    assert len(factored) == 6
    for ring in ([*rings.values()] + [r.op() for r in rings.values()]
                 + factored):
        units, inverse = O.units_and_inverses(ring)
        # R and R^op share the inverse memo: refill it from this ring's rows
        ring._cache["inverse"].clear()
        assert ([ring.inverse(x) for x in ring.elements()]
                == [inverse.get(x) for x in ring.elements()]), ring.describe()
        assert ring.units() == units, ring.describe()


def test_inverse_by_elimination_matches_grid(corpus_rings):
    rng = random.Random(12)
    cases = [(ring, n) for ring in {r.spec: r for _, r in corpus_rings}.values()
             for n in (2, 3) if ring.size ** n <= 4096]
    cases.append((R.build_ring(R.MatrixSpec(R.ZmodSpec(4), 2)), 2))
    invertible = singular = 0
    for ring, n in cases:
        for _ in range(40):
            A = decode_matrix(ring, n, rng.randrange(ring.size ** (n * n)))
            want = O.grid_inverse(A)
            assert M.try_inverse(A) == want, (ring.describe(), A)
            invertible += want is not None
            singular += want is None
    assert invertible > 100 and singular > 100


def test_left_span_matches_sorted_set_sums(corpus_rings):
    # the left ideal of an elimination column, as one additive span
    rng = random.Random(15)
    full = proper = 0
    for ring in {r.spec: r for _, r in corpus_rings}.values():
        for _ in range(40):
            elems = [rng.randrange(ring.size) for _ in range(rng.randrange(4))]
            got = M._left_span(ring, elems)
            assert np.array_equal(got, O.left_span_numpy(ring, elems)), \
                (ring.describe(), elems)
            full += bool(got[ring.one])
            proper += not got[ring.one]
    assert full and proper


def test_mask_sets_match_np_unique(corpus_rings):
    rng = random.Random(14)
    for ring in {r.spec: r for _, r in corpus_rings}.values():
        for ring in (ring, ring.op()):
            assert all(ring.right_multiples(a)
                       == O.unique_right_multiples(ring, a)
                       for a in ring.elements()), ring.describe()
            for _ in range(30):
                a, b = rng.randrange(ring.size), rng.randrange(ring.size)
                assert (ring.right_span(a, b)
                        == O.unique_right_span(ring, a, b)), ring.describe()
            values = ring.npmul[rng.randrange(ring.size)]
            assert np.array_equal(R.distinct(values, ring.size),
                                  np.unique(values))


def _random_word(ring, n, rng, length):
    ops = []
    for _ in range(length):
        i, j = rng.sample(range(1, n + 1), 2)
        ops.append(M.ElemOp(rng.choice((M.LEFT, M.RIGHT)), i, j,
                            rng.randrange(ring.size)))
    return M.ElemWord(n, tuple(ops))


def test_scan_rings_cover_both_row_forms(scan_rings):
    mirrored = [ring._mul is not None for ring in scan_rings]
    assert any(mirrored) and not all(mirrored)
    assert max(ring.size for ring in scan_rings) == 4096


def test_word_replay_matches_per_op_replay(scan_rings):
    rng = random.Random(15)
    for ring in scan_rings:
        for n in (2, 4):
            for _ in range(3):
                A = decode_matrix(ring, n,
                                    rng.randrange(ring.size ** (n * n)))
                w = _random_word(ring, n, rng, 50)
                got = M.apply_elem_word(A, w)
                assert got == O.replay_per_op(A, w), (ring.describe(), n)
                assert all(type(x) is int for row in got.entries
                           for x in row), ring.describe()


def test_row_scans_match_numpy_forms(scan_rings):
    rng = random.Random(16)
    for ring in scan_rings:
        size = ring.size
        if size <= 64:
            pairs = [(a, t) for a in range(size) for t in range(size)]
        else:
            pairs = [(rng.randrange(size), rng.randrange(size))
                     for _ in range(250)]
            # as many targets in aR, so that the solves also hit
            pairs += [(a, ring.mul(a, rng.randrange(size))) for a, _ in pairs]
        hits = 0
        for a, t in pairs:
            want = O.solve_right_numpy(ring, a, t)
            assert R.solve_right(ring, a, t) == want, (ring.describe(), a, t)
            hits += want is not None
            # (a, t) as the row (c, d) of a pair solve for 1
            assert (R.solve_pair_right(ring, a, t, ring.one)
                    == O.solve_pair_right_mask(ring, a, t, ring.one)), \
                (ring.describe(), a, t)
        assert 0 < hits < len(pairs), ring.describe()
        for a in (range(size) if size <= 64 else {a for a, _ in pairs}):
            assert (ring.right_multiples(a)
                    == O.unique_right_multiples(ring, a)), (ring.describe(), a)


def test_right_span_matches_numpy_form(scan_rings):
    # aR + bR grown coset by coset against the mask of all |aR| x |bR| sums;
    # idempotent pairs are what join_idempotent and the verifier ask for
    rng = random.Random(18)
    for ring in scan_rings:
        size, idems = ring.size, ring.idempotents()
        if size <= 16:
            pairs = [(a, b) for a in range(size) for b in range(size)]
        else:
            pairs = [(rng.randrange(size), rng.randrange(size))
                     for _ in range(40)]
            pairs += [(rng.choice(idems), rng.choice(idems))
                      for _ in range(40)]
        pairs += [(ring.zero, ring.zero), (ring.one, ring.zero)]
        # a zero side, a unit side, and |aR| < |bR|, so that the larger of
        # aR and bR stands second as well as first
        for a in rng.sample(range(size), min(size, 8)):
            b = rng.randrange(size)
            pairs += [(ring.zero, b), (a, ring.zero), (ring.one, b)]
            pairs.append(tuple(sorted((a, b), key=lambda x: len(
                ring.right_multiples(x)))))
        assert any(len(ring.right_multiples(a)) < len(ring.right_multiples(b))
                   for a, b in pairs), ring.describe()
        for a, b in pairs:
            assert (ring.right_span(a, b)
                    == O.right_span_numpy(ring, a, b)), (ring.describe(), a, b)


def test_matrix_values_match_loop_forms(scan_rings):
    # products, transposes, R^op images, direct sums, word replays and
    # identities on rings with and without list mirrors (and their
    # opposites), n = 1..4, against the nested loops: the same matrices,
    # every entry a Python int, and one identity object per (ring, n)
    rng = random.Random(29)

    def rand(ring, n):
        return M.RMatrix(ring, n, tuple(tuple(rng.randrange(ring.size)
                                              for _ in range(n))
                                        for _ in range(n)))

    def ints(A):
        return all(type(x) is int for row in A.entries for x in row)

    for ring in scan_rings:
        name = ring.describe()
        for n in range(1, 5):
            ident = M.identity(ring, n)
            assert ident is M.identity(ring, n), (name, n)
            assert ident == O.identity_loops(ring, n) and ints(ident)
            for _ in range(3):
                A, B = rand(ring, n), rand(ring, n)
                C = rand(ring, rng.randint(1, 4))
                word = M.ElemWord(n, tuple(
                    M.ElemOp(rng.choice((M.LEFT, M.RIGHT)), i, j,
                             rng.randrange(ring.size))
                    for i, j in [rng.sample(range(1, n + 1), 2)
                                 for _ in range(6 if n > 1 else 0)]))
                for got, want in (
                        (M.mat_mul(A, B), O.mat_mul_loops(A, B)),
                        (A.op(), M.RMatrix(ring.op(), n,
                                           O.transpose_loops(A).entries)),
                        (M.direct_sum(A, C), O.direct_sum_loops(A, C)),
                        (M.apply_elem_word(A, word), O.replay_per_op(A, word)),
                        (M.mat_mul(A, ident), A), (M.mat_mul(ident, A), A)):
                    assert got == want, (name, n)
                    assert ints(got), (name, n)


def test_split_and_zero_row_match_numpy_forms():
    # M_2(Z/6) and M_2(Z/8) keep no list mirrors: the scans answer from
    # numpy rows, masks and first hits, and still hand back Python ints
    # (the zero row among them: the zero element is an argument)
    rng = random.Random(17)
    hits = misses = 0
    for n in (6, 8):
        mring = R.build_ring(R.MatrixSpec(R.ZmodSpec(n), 2))
        for ring in (mring, mring.op()):
            assert ring._mul is None
            size, idems = ring.size, ring.idempotents()
            args = [(ring.zero, ring.zero), (ring.zero, ring.one),
                    (ring.one, ring.zero), (ring.one, ring.one)]
            for e in rng.sample(idems, 20):
                args.append((e, ring.sub(ring.one, e)))
            args += [(rng.randrange(size), rng.randrange(size))
                     for _ in range(60)]
            for a, b in args:
                want = O.split_numpy(ring, a, b)
                got = scans.split(ring, a, b)
                assert got == want, (ring.describe(), a, b)
                assert all(type(x) is int for x in got or ())
                hits += want is not None
                misses += want is None
                for t in (ring.zero, ring.one, ring.mul(a, b)):
                    x = R.solve_right(ring, a, t)
                    assert x == O.solve_right_numpy(ring, a, t), (a, t)
                    assert x is None or type(x) is int
                    got = R.solve_pair_right(ring, a, b, t)
                    assert all(type(v) is int for v in got or ())
                    assert got == O.solve_pair_right_mask(ring, a, b, t), \
                        (a, b, t)
    assert hits and misses
