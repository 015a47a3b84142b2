import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometric_reference import fraction_rref
from trophom import exactla
from trophom.exactla import (
    IntMatrix,
    back_substitute,
    basis_completion,
    det,
    exact_rational,
    exterior_power,
    gauss_jordan,
    hnf,
    hnf_pivots,
    homology_at,
    kernel_lattice,
    lattice_basis,
    primitive_vector,
    hnf_row,
    scaled,
    smith_diagonal,
    solve_int,
)


def M(rows, ncols=None):
    return IntMatrix(rows, ncols=ncols)


def column(A, j):
    """Column j of the matrix A, as a tuple."""
    return tuple(r[j] for r in A.rows)


def span_points(cols, bound):
    """Brute-force Z-span of the given 2d columns inside [-bound, bound]^2."""
    pts = set()
    for a, b in product(range(-3 * bound, 3 * bound + 1), repeat=2):
        x = (a * cols[0][0] + b * cols[1][0], a * cols[0][1] + b * cols[1][1])
        if all(abs(c) <= bound for c in x):
            pts.add(x)
    return pts


class TestIntMatrix:
    def test_non_integral_entry_rejected(self):
        with pytest.raises(ValueError, match="row 0, column 0"):
            IntMatrix([[Fraction(3, 2), 2.7]])
        with pytest.raises(ValueError, match="row 1, column 2"):
            IntMatrix([[1, 2, 3], (4, 5, 2.5)])

    def test_integral_values_become_ints(self):
        """True becomes 1, and 0.0, -0.0, False and Fraction(0) become 0, in
        the dense and the sparse rows."""
        A = IntMatrix([[Fraction(4, 2), 3.0, True], (x for x in (-1, 0, 7)),
                       [0.0, -0.0, False], (Fraction(0), Fraction(-6, 3), 0)])
        assert A.rows == ((2, 3, 1), (-1, 0, 7), (0, 0, 0), (0, -2, 0))
        assert A.sparse_rows() == {0: {0: 2, 1: 3, 2: 1}, 1: {0: -1, 2: 7}, 2: {}, 3: {1: -2}}
        assert all(type(x) is int for r in A.rows for x in r)
        assert all(type(x) is int for r in A.sparse_rows().values() for x in r.values())

    def test_public_column_constructors_reject_non_integral_entries(self):
        """Both name the entry by row (coordinate) and column (generator),
        and name a column whose length is not the row count."""
        with pytest.raises(ValueError, match=r"Fraction\(1, 2\) at row 1, column 0"):
            IntMatrix.from_columns([(1, Fraction(1, 2)), (0, 1)], 2)
        with pytest.raises(ValueError, match=r"Fraction\(1, 2\) at row 0, column 1"):
            lattice_basis([(0, 1), (Fraction(1, 2), 3)], 2)
        with pytest.raises(ValueError, match="2.5 at row 2, column 0"):
            lattice_basis([(1, 2, 2.5)], 3)
        for build in (IntMatrix.from_columns, lattice_basis):
            with pytest.raises(ValueError, match="column 1 has 3 entries, not 2"):
                build([(1, 0), (0, 1, 0)], 2)
            with pytest.raises(ValueError, match="column 0 has 1 entries, not 2"):
                build([(1,)], 2)
        L = lattice_basis([(Fraction(4, 2), 0), (0, True)], 2)
        assert L == IntMatrix([[2, 0], [0, 1]])
        assert all(type(x) is int for r in L.rows for x in r)

    def test_internal_results_are_plain_ints(self):
        """What the module computes from checked matrices skips the check, so
        each result must hold tuples of plain ints equal to a checked copy:
        seeded random matrices, some given through integral Fractions, floats
        and bools, which the checked constructor converts."""
        rng = random.Random(17)
        entries = (-3, -1, 0, 0, 1, 2, 5, Fraction(4, 2), -2.0, True)

        def checked(R):
            assert type(R.rows) is tuple and len(R.rows) == R.nrows
            assert all(type(r) is tuple and len(r) == R.ncols for r in R.rows)
            assert all(type(x) is int for r in R.rows for x in r)
            assert R == IntMatrix(R.rows, ncols=R.ncols)

        for _ in range(60):
            m, n, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)
            A = IntMatrix([[rng.choice(entries) for _ in range(n)] for _ in range(m)], ncols=n)
            B = IntMatrix([[rng.choice(entries) for _ in range(k)] for _ in range(n)], ncols=k)
            H, V = hnf(A)
            results = [IntMatrix.identity(m), IntMatrix.zeros(m, n), A.transpose(), A * B,
                       A.submatrix(range(m // 2, m), range(n - 1, -1, -1)),
                       *hnf_row(A), H, V,
                       back_substitute(hnf_pivots(H), n, A),
                       lattice_basis(A.columns(), m),
                       kernel_lattice(A)]
            results += [exterior_power(A, p) for p in range(-1, 4)]
            for R in results:
                checked(R)

    @pytest.mark.parametrize("bad", [None, "", "3", 2.5, Fraction(1, 3), float("nan"),
                                     float("inf"), [0], ()])
    def test_rejected_at_construction_naming_the_entry(self, bad):
        """A non-integral entry raises when the matrix is built, not when its
        rows are first read, and the message names its row and column:
        falsy entries (None, "", ()) that are not 0 as well."""
        with pytest.raises(ValueError, match="at row 1, column 2"):
            IntMatrix([[0, 1, 0], [0, 0, bad], [2, 0, 0]])

    def test_copy_and_pickle(self):
        """A checked or trusted matrix copies and pickles, before and after
        it derives its other form, into an equal IntMatrix of ints."""
        for read in (False, True):
            for A in (IntMatrix([[1, 0.0], [False, 2]]), IntMatrix([], ncols=3),
                      IntMatrix._trusted(((1, 0), (0, 2)), 2)):
                if read:
                    A.rows, A.sparse_rows()
                for B in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
                    assert type(B) is IntMatrix and B == A and B.sparse_rows() == A.sparse_rows()
                    assert {type(x) for r in B.rows for x in r} <= {int}

    def test_ragged_and_shape_errors(self):
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix([[1, 0], [0]])
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix([[1], [0, None]])
        with pytest.raises(ValueError, match="ncols mismatch"):
            IntMatrix([[1, 0]], ncols=3)
        with pytest.raises(ValueError, match="explicit ncols"):
            IntMatrix([])

    def test_shape_errors_name_the_lengths(self):
        """A ragged row is named with its length and the expected one; the
        ncols mismatch names row 0's length, and `apply` both lengths."""
        with pytest.raises(ValueError, match=r"^ragged rows: row 1 has 1 entries, not 2$"):
            IntMatrix([[1, 0], [0]])
        with pytest.raises(ValueError, match=r"^ragged rows: row 2 has 3 entries, not 1$"):
            IntMatrix([[1], [0], [0, None, 2]])
        with pytest.raises(ValueError, match=r"^ncols mismatch: ncols is 3, row 0 has 2 entries$"):
            IntMatrix([[1, 0]], ncols=3)
        with pytest.raises(ValueError,
                           match=r"^length mismatch: vector has 2 entries, matrix has 3 columns$"):
            IntMatrix([[1, 2, 3]]).apply((1, 2))

    def test_dense_and_sparse_rows_match_a_dense_reference(self):
        """Seeded random matrices, dense and sparse, given through ints,
        bools, floats and Fractions: `rows` is the entrywise int() of the
        input and `sparse_rows()` its nonzero entries, in either read order."""
        rng = random.Random(31)
        entries = (0, 0, 0, 0, 0.0, False, Fraction(0), 1, -1, 7, True, 3.0, Fraction(-8, 2))
        for k in range(120):
            m, n = rng.randint(0, 6), rng.randint(0, 7)
            given = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
            dense = tuple(tuple(int(x) for x in r) for r in given)
            sparse = {i: {j: x for j, x in enumerate(r) if x} for i, r in enumerate(dense)}
            A = IntMatrix(given, ncols=n)
            if k % 2:
                assert A.sparse_rows() == sparse and A.rows == dense
            else:
                assert A.rows == dense and A.sparse_rows() == sparse
            assert (A.nrows, A.ncols) == (m, n)
            assert A == IntMatrix._trusted(dense, n) and hash(A) == hash(IntMatrix._trusted(dense, n))
            assert IntMatrix._trusted(dense, n).sparse_rows() == sparse


    def test_product_and_apply_check_shapes(self):
        A = IntMatrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match=r"shape mismatch 2x3 \* 2x3"):
            A * A
        with pytest.raises(ValueError, match="length mismatch"):
            A.apply((1, 2))
        assert A.apply((1, 0, -1)) == (-2, -2)

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (3, 0), (2, 3)])
    def test_transpose_shapes(self, m, n):
        A = IntMatrix([[i + 2 * j for j in range(n)] for i in range(m)], ncols=n)
        T = A.transpose()
        assert (T.nrows, T.ncols) == (n, m)
        assert T.transpose() == A
        assert all(T.rows[j][i] == A.rows[i][j] for i in range(m) for j in range(n))


class TestHNF:
    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, m, n):
        A = IntMatrix([[] for _ in range(m)] if n == 0 else [], ncols=n)
        H, V = hnf(A)
        assert (H.nrows, H.ncols) == (m, n)
        assert (V.nrows, V.ncols) == (n, n)
        assert A * V == H


    def test_identity(self):
        H, V = hnf(IntMatrix.identity(3))
        assert H == IntMatrix.identity(3)

    def test_single_column_already_hnf(self):
        A = M([[2], [4]])
        H, V = hnf(A)
        assert H == A

    def test_index_two_sublattice(self):
        # columns (1,1), (1,-1) span an index-2 sublattice of Z^2
        A = M([[1, 1], [1, -1]])
        H, V = hnf(A)
        assert A * V == H
        # oracle: enumerate the span in a box and compare with H's span
        expected = span_points([(1, 1), (1, -1)], 4)
        got = span_points([column(H, 0), column(H, 1)], 4)
        assert expected == got
        # index 2: determinant of the basis
        assert abs(det(H)) == 2

    def test_canonical_under_column_change(self):
        rng = random.Random(7)
        for _ in range(25):
            A = M([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
            # random unimodular via product of elementary column ops
            W = [list(r) for r in IntMatrix.identity(3).rows]
            for _ in range(6):
                i, j = rng.sample(range(3), 2)
                q = rng.randint(-2, 2)
                for row in W:
                    row[j] += q * row[i]
            B = A * IntMatrix(W)
            assert hnf(A)[0] == hnf(B)[0]


def mirrored_hnf_rows(h, u=None):
    """Reference: the row Hermite elimination as it stood with its transform
    kept apart, each swap, negation and row subtraction of h mirrored on u
    (when given).  Pivots positive, entries above each pivot reduced into
    [0, pivot)."""
    m = len(h)
    n = len(h[0]) if m else 0
    r = 0
    for c in range(n):
        if r >= m:
            break
        while True:
            best = None
            for i in range(r, m):
                v = h[i][c]
                if v != 0 and (best is None or abs(v) < abs(h[best][c])):
                    best = i
            if best is None:
                break
            if best != r:
                h[r], h[best] = h[best], h[r]
                if u is not None:
                    u[r], u[best] = u[best], u[r]
            done = True
            p = h[r][c]
            for i in range(r + 1, m):
                v = h[i][c]
                if v:
                    q = v // p
                    if q:
                        for j in range(n):
                            h[i][j] -= q * h[r][j]
                        if u is not None:
                            for j in range(len(u[i])):
                                u[i][j] -= q * u[r][j]
                    if h[i][c]:
                        done = False
            if done:
                break
        if h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                if u is not None:
                    u[r] = [-x for x in u[r]]
            p = h[r][c]
            for i in range(r):
                q = h[i][c] // p
                if q:
                    for j in range(n):
                        h[i][j] -= q * h[r][j]
                    if u is not None:
                        for j in range(len(u[i])):
                            u[i][j] -= q * u[r][j]
            r += 1


def mirrored_hnf_row(A):
    h = [list(r) for r in A.rows]
    u = [list(r) for r in IntMatrix.identity(A.nrows).rows]
    mirrored_hnf_rows(h, u)
    return IntMatrix(h, ncols=A.ncols), IntMatrix(u, ncols=A.nrows)


def mirrored_lattice_basis(cols, ambient):
    h = [list(c) for c in cols]
    mirrored_hnf_rows(h)
    return IntMatrix.from_columns([r for r in h if any(r)], ambient)


def mirrored_kernel(A):
    """The kernel through the column HNF: transpose, row HNF with its
    transform, transpose back, and take V's columns beside H's zero
    columns."""
    Ht, Ut = mirrored_hnf_row(A.transpose())
    H, V = Ht.transpose(), Ut.transpose()
    zero = [j for j in range(H.ncols) if not any(column(H, j))]
    return mirrored_lattice_basis([column(V, j) for j in zero], A.ncols)


def mirrored_completion(A, m):
    """`basis_completion` of A's columns through the mirrored elimination."""
    H, U = mirrored_hnf_row(A)
    eye = tuple(tuple(int(i == j) for j in range(A.ncols)) for i in range(m))
    return U if H.rows == eye else None


class TestHermiteReference:
    def test_matches_mirrored_transform(self):
        """`hnf_row`, `hnf`, `kernel_lattice`, `lattice_basis` and
        `basis_completion`, whose transforms ride along as columns of one
        elimination, give exactly the matrices of the elimination that
        mirrors every row operation on a separate transform."""
        rng = random.Random(41)
        shapes = [(m, n) for m in range(4) for n in range(4) if not m * n]
        shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(2400)]
        completions = 0
        for m, n in shapes:
            values = rng.choice(((0, 1, -1), (0, 0, 1, -1, 2, -3), tuple(range(-9, 10))))
            A = IntMatrix([[rng.choice(values) for _ in range(n)] for _ in range(m)], ncols=n)
            H, U = mirrored_hnf_row(A)
            assert hnf_row(A) == (H, U), A
            Ht, Ut = mirrored_hnf_row(A.transpose())
            assert hnf(A) == (Ht.transpose(), Ut.transpose()), A
            assert kernel_lattice(A) == mirrored_kernel(A), A
            assert lattice_basis(A.rows, n) == \
                mirrored_lattice_basis(A.rows, n), A
            assert basis_completion(A.columns(), m) == mirrored_completion(A, m), A
            completions += mirrored_completion(A, m) is not None
        assert completions >= 200


def sparse(A):
    return {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(A.rows)}


def invariant_factors_by_minors(A):
    """The definition, free of any eliminator: d_k = D_k / D_(k-1), where D_k
    is the gcd of the k x k minors and D_0 = 1, for k up to the rank."""
    out, prev = [], 1
    for k in range(1, min(A.nrows, A.ncols) + 1):
        g = 0
        for I in combinations(range(A.nrows), k):
            for J in combinations(range(A.ncols), k):
                g = gcd(g, det(A.submatrix(I, J)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def full_scan_smith_diagonal(entries_by_row):
    """Reference eliminator: every step rescans all entries for the pivot of
    least (non-unit, |value|, len(row) * len(col)), then finishes with the
    quadratic gcd/lcm divisibility pass over the whole diagonal."""
    rows = {i: dict(r) for i, r in entries_by_row.items() if r}
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)

    def setval(i, j, v):
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
        elif j in rows.get(i, ()):
            del rows[i][j]
            cols[j].discard(i)
            if not cols[j]:
                del cols[j]
            if not rows[i]:
                del rows[i]

    diag = []
    while rows:
        _, i0, j0 = min(((abs(v) != 1, abs(v), len(r) * len(cols[j])), i, j)
                        for i, r in rows.items() for j, v in r.items())
        p = rows[i0][j0]
        for i in list(cols[j0]):
            if i != i0 and (q := rows[i][j0] // p):
                for j, w in list(rows[i0].items()):
                    setval(i, j, rows.get(i, {}).get(j, 0) - q * w)
        for j in list(rows[i0]):
            if j != j0 and (q := rows[i0][j] // p):
                for i in list(cols[j0]):
                    setval(i, j, rows.get(i, {}).get(j, 0) - q * rows[i][j0])
        if any(i != i0 for i in cols[j0]) or any(j != j0 for j in rows[i0]):
            continue
        setval(i0, j0, 0)
        diag.append(abs(p))
    changed = True
    while changed:
        changed = False
        for a in range(len(diag)):
            for b in range(a + 1, len(diag)):
                if diag[b] % diag[a]:
                    g = gcd(diag[a], diag[b])
                    diag[a], diag[b] = g, diag[a] * diag[b] // g
                    changed = True
    return diag


def random_sparse(rng, m, n, density, values):
    return {i: {j: rng.choice(values) for j in range(n) if rng.random() < density}
            for i in range(m)}


def left_kernel_rows(rng, entries, m, n):
    """1 to 3 seeded rows B with B * A = 0 for the m x n matrix A of these
    sparse rows: small integer combinations of a basis of A's left kernel.
    None when that kernel is zero."""
    A = M([[entries[i].get(j, 0) for j in range(n)] for i in range(m)], ncols=n)
    K = kernel_lattice(A.transpose())
    if not K.ncols:
        return None
    B = M([[rng.randint(-3, 3) for _ in range(K.ncols)]
           for _ in range(rng.randint(1, 3))], ncols=K.ncols) * K.transpose()
    assert B * A == IntMatrix.zeros(B.nrows, n)
    return B


def pairwise_divisibility_pass(diag):
    """Reference: make diag[i] | diag[j] for every i < j by (gcd, lcm)
    replacements, sweeping every pair until none changes."""
    diag = list(diag)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                a, b = diag[i], diag[j]
                if b % a != 0:
                    g = gcd(a, b)
                    diag[i], diag[j] = g, a * b // g
                    changed = True
    return diag


class TestSNF:
    def test_zero_matrix(self):
        assert smith_diagonal(sparse(IntMatrix.zeros(2, 3)), 2, 3) == []

    def test_diag_2_3(self):
        # coker(diag(2,3)) = Z/2 + Z/3 = Z/6, so invariant factors (1, 6)
        assert smith_diagonal(sparse(M([[2, 0], [0, 3]])), 2, 2) == [1, 6]

    def test_tripod_boundary_unimodular(self):
        # star graph: center vertex 0, leaves 1..3, edges (0,i)
        B = M([[-1, -1, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert smith_diagonal(sparse(B), 4, 3) == [1, 1, 1]

    def test_smith_diagonal_matches_dense(self):
        rng = random.Random(3)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            A = M([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
            assert smith_diagonal(sparse(A), m, n) == invariant_factors_by_minors(A)

    def test_non_unit_entries_match_minors(self):
        """No input entry is a unit, so every pivot is isolated; a 2 and a 3
        in one column leave a unit.  In [[4, 6], [4, 4]] the 4 at (1, 1)
        leaves the remainder 2 above it, which becomes the pivot and clears
        the 4 below it; the 4 left at (1, 0) then stands alone and is
        isolated in place by a second isolation."""
        assert smith_diagonal(sparse(M([[2], [3]])), 2, 1) == [1]
        assert smith_diagonal(sparse(M([[2, 3]])), 1, 2) == [1]
        assert smith_diagonal(sparse(M([[2, 4], [4, 2]])), 2, 2) == [2, 6]
        assert smith_diagonal(sparse(M([[4, 6], [4, 4]])), 2, 2) == [2, 4]
        rng = random.Random(11)
        values = (0, 0, 2, -2, 3, -3, 4, -4, 6)
        with_unit = 0
        for _ in range(80):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            A = M([[rng.choice(values) for _ in range(n)] for _ in range(m)])
            got = smith_diagonal(sparse(A), m, n)
            assert got == invariant_factors_by_minors(A), A
            with_unit += 1 in got
        assert with_unit >= 20

    def test_divisibility_fold_matches_pairwise_reference(self):
        """The insertion fold gives the pairwise pass's chain, 1s included,
        on lists of factors with shared and coprime primes."""
        rng = random.Random(23)
        cases = [[], [1], [2, 3], [6, 4], [2] * 30, [2, 3] * 15, [12, 18, 8, 27]]
        for _ in range(2000):
            cases.append([rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 30))
                          for _ in range(rng.randint(0, 12))])
        # factors that share primes in pairs (6 and 10 share 2, 15 shares 3
        # and 5), prime powers above 2**64, large multiplicities
        for _ in range(300):
            cases.append([rng.choice((6, 10, 15, 4, 9, 25, 36, 2 ** 70, 3 * 2 ** 65, 7))
                          for _ in range(rng.randint(0, 9))])
        cases += [[2, 3] * 400, [6] * 150 + [10] * 100 + [15] * 50]
        for diag in cases:
            assert exactla._divisibility_pass(diag) == pairwise_divisibility_pass(diag), diag

    def test_matches_full_scan_reference(self):
        """The bucket queue changes only the pivot order: 300 seeded sparse
        matrices up to 30 x 40 give the reference diagonal.  They are
        unit-rich, where each unit retires with its row and column at once,
        some with a few non-units among the units; mixed; and free of units,
        where every pivot is isolated, the even ones keep every entry a
        non-unit, and 4s and 6s in one column leave a remainder of 2 under a
        pivot of 4.  The input dicts are left as they were."""
        rng = random.Random(23)
        kinds = ((1, -1), (1, -1, 1, -1, 2, -3), (2, -2, 3, 4, -6),
                 (2, -2, 4, 6, -8, 12), (4, 6, -4, -6), (1, -1, 1, -1, 1, -1, 2))
        for k in range(300):
            m, n = rng.randint(1, 30), rng.randint(1, 40)
            entries = random_sparse(rng, m, n, rng.uniform(0.03, 0.3), kinds[k % 6])
            before = {i: dict(r) for i, r in entries.items()}
            assert smith_diagonal(entries, m, n) == full_scan_smith_diagonal(entries)
            assert entries == before

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-12, 12), min_size=n, max_size=n), min_size=1, max_size=5)))
    def test_matches_minors_property(self, rows):
        A = M(rows)
        assert smith_diagonal(sparse(A), A.nrows, A.ncols) == invariant_factors_by_minors(A)

    def test_loop_ends(self, monkeypatch):
        """Each pivot that retires takes a row with it, and each isolation
        move leaves a remainder of smaller |value|, so the loop ends.  A step
        that breaks this, say one that keeps a unit pivot's row, spins
        forever; with elimination steps and isolations each capped far above
        what these matrices take (at most 19 steps and 5 isolations here) it
        fails instead.  Every isolation move makes one `_reduce_column`
        call, so the step cap also caps the moves."""
        counts = {}

        def capped(name, f):
            def g(*args):
                counts[name] += 1
                assert counts[name] <= 10_000, "smith_diagonal did not end"
                return f(*args)
            return g

        monkeypatch.setattr(exactla, "_isolate", capped("isolations", exactla._isolate))
        monkeypatch.setattr(exactla, "_reduce_column", capped("steps", exactla._reduce_column))
        rng = random.Random(3)
        for A in [M([[1, 1, 1], [1, -1, 0], [0, 1, 1]]), M([[4, 6], [4, 4]])] + [
                M([[rng.randint(-12, 12) for _ in range(5)] for _ in range(5)])
                for _ in range(5)]:
            counts.update(isolations=0, steps=0)
            assert smith_diagonal(sparse(A), A.nrows, A.ncols) == invariant_factors_by_minors(A)

    @pytest.mark.parametrize("n", (6, 20))
    def test_boundary_units_never_reach_the_isolation_step(self, monkeypatch, n):
        """The first pass takes every unit pivot, so no entry of the torus's
        d1 or d2 reaches the isolation step.  The Klein bottle's d1 leaves
        nothing either.  Its d2 leaves one column of 2s, each alone in its
        row: the one isolation starts at a 2 of that column, which then
        holds every entry left, and clears the column in place.  Its 2 is
        the torsion of H_1 = Z + Z/2."""
        isolated = []
        real = exactla._isolate

        def counted(rows, cols, i0, j0):
            isolated.append((rows[i0][j0], j0, {(i, j) for i, r in rows.items() for j in r},
                             {abs(v) for r in rows.values() for v in r.values()}))
            got = real(rows, cols, i0, j0)
            assert got == (i0, j0)
            return got

        monkeypatch.setattr(exactla, "_isolate", counted)
        for kind in ("torus", "klein"):
            for d, B in enumerate(grid_boundaries(kind, n), 1):
                isolated.clear()
                got = smith_diagonal(B.sparse_rows(), B.nrows, B.ncols)
                if (kind, d) == ("klein", 2):
                    ((p, j0, left, values),) = isolated
                    assert abs(p) == 2 and values == {2}
                    assert {j for i, j in left} == {j0}
                    assert len({i for i, j in left}) == len(left) > 1
                    assert got == [1] * (B.ncols - 1) + [2]
                else:
                    assert isolated == []

    def test_unit_rich_and_mixed_keep_factors_and_pairing(self, monkeypatch):
        """Seeded unit-rich and mixed matrices up to 12 x 12 give the full
        scan's diagonal, and every isolation starts at a non-unit: the first
        pass leaves no unit, and a later one takes a column's unit before
        any other entry.  For B with B * A = 0, drawn from the left kernel
        of A, B without the columns that A's reduction pairs keeps B's
        invariant factors, as in `test_paired_columns_keep_the_factors`."""
        starts = []
        real = exactla._isolate

        def counted(rows, cols, i0, j0):
            starts.append(rows[i0][j0])
            return real(rows, cols, i0, j0)

        monkeypatch.setattr(exactla, "_isolate", counted)
        rng = random.Random(29)
        kinds = ((1, -1), (1, -1, 1, -1, 2, -3), (1, -1, 2, -2, 3, 4, -6))
        seen = {"non-units isolated": 0, "pairing drops a column of B": 0}
        for k in range(150):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            entries = random_sparse(rng, m, n, rng.uniform(0.1, 0.5), kinds[k % 3])
            starts.clear()
            paired = set()
            assert smith_diagonal(entries, m, n, paired=paired) \
                == full_scan_smith_diagonal(entries)
            assert all(abs(p) > 1 for p in starts)
            seen["non-units isolated"] += bool(starts)
            B = left_kernel_rows(rng, entries, m, n)
            if B is None:
                continue
            kept = {i: {j: v for j, v in r.items() if j not in paired}
                    for i, r in B.sparse_rows().items()}
            assert smith_diagonal(kept, B.nrows, B.ncols) \
                == smith_diagonal(B.sparse_rows(), B.nrows, B.ncols)
            seen["pairing drops a column of B"] += kept != B.sparse_rows()
        assert min(seen.values()) >= 20, seen

    def test_pivot_alone_in_its_column_only_stops_the_pairing(self):
        """A = [[0, 3], [3, 2], [0, 4]] has no unit, and its 3 at (1, 0)
        stands alone in its column but not in its row.  Its isolation
        reduces the 2 beside it, moves into column 1, where rows 0 and 2
        wait, and makes row operations there, so no row of A pairs, though
        a unit at (0, 1) retires.  B = [[-8, 0, 6]] has B * A = 0 and the
        invariant factor 2; without column 0, had row 0 been paired, it
        would read 6."""
        A = {0: {1: 3}, 1: {0: 3, 1: 2}, 2: {1: 4}}
        paired = set()
        assert smith_diagonal(A, 3, 2, paired=paired) == [1, 3]
        assert paired == set()
        B = {0: {0: -8, 2: 6}}
        assert smith_diagonal(B, 1, 3) == [2]
        assert smith_diagonal({0: {2: 6}}, 1, 3) == [6]

    def test_unit_poor_pairing_keeps_factors(self, monkeypatch):
        """Seeded unit-poor matrices A up to 10 x 10, entries from
        (2, -2, 3, 4, -6) or (4, 6, -4, -6, 9), where units come only as
        remainders.  For B with B * A = 0, drawn from the left kernel of A,
        B without the columns that A's reduction pairs keeps B's invariant
        factors.  Many isolations here start at a pivot alone in its column
        but not in its row, so a pairing rule that stops only at a non-unit
        pivot with other rows in its column pairs rows it must not, and
        fails, as on the pinned case of
        `test_pivot_alone_in_its_column_only_stops_the_pairing`."""
        real = exactla._isolate
        seen = {"isolations alone in their column only": 0, "B drawn": 0}

        def counted(rows, cols, i0, j0):
            seen["isolations alone in their column only"] += \
                len(cols[j0]) == 1 < len(rows[i0])
            return real(rows, cols, i0, j0)

        monkeypatch.setattr(exactla, "_isolate", counted)
        rng = random.Random(42)
        kinds = ((2, -2, 3, 4, -6), (4, 6, -4, -6, 9))
        for k in range(1500):
            m, n = rng.randint(2, 10), rng.randint(1, 10)
            entries = random_sparse(rng, m, n, rng.uniform(0.15, 0.5), kinds[k % 2])
            paired = set()
            smith_diagonal(entries, m, n, paired=paired)
            B = left_kernel_rows(rng, entries, m, n)
            if B is None:
                continue
            seen["B drawn"] += 1
            kept = {i: {j: v for j, v in r.items() if j not in paired}
                    for i, r in B.sparse_rows().items()}
            assert smith_diagonal(kept, B.nrows, B.ncols) \
                == smith_diagonal(B.sparse_rows(), B.nrows, B.ncols), (entries, paired)
        assert min(seen.values()) >= 500, seen

    def test_unit_poor_matches_full_scan_reference(self):
        """Seeded unit-poor matrices up to 40 x 40, where most pivots are
        isolated, give the full scan's diagonal; their units come only as
        remainders, and 9s beside 4s and 6s leave remainders of 1, 2 and
        3.  The input dicts are left as they were."""
        rng = random.Random(43)
        kinds = ((2, -2, 3, 4, -6), (4, 6, -4, -6, 9), (2, -2, 4, 6, -8, 12))
        for k in range(60):
            m, n = rng.randint(1, 40), rng.randint(1, 40)
            entries = random_sparse(rng, m, n, rng.uniform(0.03, 0.3), kinds[k % 3])
            before = {i: dict(r) for i, r in entries.items()}
            assert smith_diagonal(entries, m, n) == full_scan_smith_diagonal(entries)
            assert entries == before

    @pytest.mark.parametrize("kind", ("torus", "klein"))
    @pytest.mark.parametrize("size", (3, 4, 6, 12, 20))
    def test_grid_surfaces_match_full_scan_reference(self, kind, size):
        for B in grid_boundaries(kind, size):
            assert smith_diagonal(B.sparse_rows(), B.nrows, B.ncols) \
                == full_scan_smith_diagonal(B.sparse_rows())

    @pytest.mark.parametrize("kind", ("torus", "klein"))
    def test_grid_surfaces_diagonal(self, kind):
        """On the 30 x 30 grid, where the full scan takes seconds: d1 has
        V - 1 unit factors.  On the torus d2 has T - 1, since H_2 = Z; on the
        Klein bottle it is injective, with T - 1 units and a last 2, so
        H_1 = Z + Z/2."""
        d1, d2 = grid_boundaries(kind, 30)
        assert smith_diagonal(d1.sparse_rows(), d1.nrows, d1.ncols) == [1] * (d1.nrows - 1)
        last = [2] if kind == "klein" else []
        assert smith_diagonal(d2.sparse_rows(), d2.nrows, d2.ncols) \
            == [1] * (d2.ncols - 1) + last

    def test_out_of_range_entry_rejected(self):
        """The first nonzero entry outside the matrix, in row order, is
        named, after in-range rows too; a row outside that holds only
        zeros raises nothing."""
        for entries, where in (({0: {5: 2}, 7: {0: 3}}, r"\(0, 5\)"),
                               ({7: {0: 3}}, r"\(7, 0\)"),
                               ({1: {0: 1, -1: 2}}, r"\(1, -1\)"),
                               ({0: {0: 1}, 1: {2: 1, 3: 4, 4: 5}}, r"\(1, 3\)"),
                               ({0: {1: 2}, 5: {0: 1}, -1: {0: 1}}, r"\(5, 0\)"),
                               ({0: {0: 1}, 6: {0: 0, 9: 0}, 1: {7: 1}}, r"\(1, 7\)")):
            with pytest.raises(ValueError, match=where):
                smith_diagonal(entries, 2, 3)
        assert smith_diagonal({0: {0: 1}, 6: {0: 0, 9: 0}, 1: {-1: 0}}, 2, 3) == [1]

    def test_explicit_zero_entries_ignored(self):
        assert smith_diagonal({0: {0: 0, 1: 2}, 1: {0: 3, 1: 0}}, 2, 2) == [1, 6]

    @pytest.mark.parametrize("size", (3, 4, 5))
    def test_doubled_torus_boundary(self, size):
        """2 * d2 of a triangulated size x size grid torus has no unit entry,
        so every pivot is a 2: its diagonal is 2 for each of the
        2 * size^2 - 1 independent triangles, as the full scan reference
        finds."""
        n = size

        def v(i, j):
            return (i % n) * n + j % n

        tris = sorted({tuple(sorted(t)) for i in range(n) for j in range(n)
                       for t in ((v(i, j), v(i, j + 1), v(i + 1, j + 1)),
                                 (v(i, j), v(i + 1, j), v(i + 1, j + 1)))})
        edges = sorted({e for a, b, c in tris for e in ((a, b), (a, c), (b, c))})
        _, d2 = boundaries(n * n, edges, tris)
        assert smith_diagonal(sparse(d2), d2.nrows, d2.ncols) == [1] * (2 * n * n - 1)
        doubled = {i: {j: 2 * x for j, x in r.items()} for i, r in sparse(d2).items()}
        got = smith_diagonal(doubled, d2.nrows, d2.ncols)
        assert got == full_scan_smith_diagonal(doubled) == [2] * (2 * n * n - 1)


class TestBasisCompletion:
    def test_matches_invariant_factors(self):
        """Columns extend to a basis exactly when they have full rank and
        every invariant factor is 1."""
        rng = random.Random(5)
        cases = [([], 2), ([(1, 1, 1), (0, 1, 2)], 3), ([(1, 0), (1, 2)], 2),
                 ([(2, 0, 0)], 3), ([(1, 0), (2, 0)], 2)]
        for _ in range(80):
            dim = rng.randint(1, 3)
            cases.append(([tuple(rng.randint(-2, 2) for _ in range(dim))
                           for _ in range(rng.randint(1, dim))], dim))
        verdicts = []
        for cols, dim in cases:
            C = IntMatrix.from_columns(cols, dim)
            U = basis_completion(cols, dim)
            want = invariant_factors_by_minors(C) == [1] * len(cols)
            assert (U is not None) == want, cols
            if U is not None:
                assert abs(det(U)) == 1
                assert U * C == IntMatrix.from_columns(
                    IntMatrix.identity(dim).rows[:len(cols)], dim)
            verdicts.append(want)
        assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def in_lattice(B, vec):
    """Is vec in the lattice with basis B (`lattice_basis`)?"""
    col = IntMatrix.from_columns([tuple(vec)], B.nrows)
    return back_substitute(hnf_pivots(B), B.ncols, col) is not None


class TestKernel:
    def test_sum_of_coordinates(self):
        K = kernel_lattice(M([[1, 1, 1]]))
        assert K.ncols == 2
        assert in_lattice(K, (1, -1, 0))
        assert in_lattice(K, (0, 1, -1))

    @pytest.mark.parametrize("k", (0, 1, 3))
    def test_no_equations_kernel_full(self, k):
        K = kernel_lattice(IntMatrix((), ncols=k))
        assert K.ncols == k
        assert K == IntMatrix.identity(k)

    def test_zero_columns_kernel_zero(self):
        assert kernel_lattice(IntMatrix([(), ()], ncols=0)).ncols == 0

    def test_identity_kernel_zero(self):
        assert kernel_lattice(IntMatrix.identity(3)).ncols == 0

    def test_tripod_cycle(self):
        # columns are the directions (-1,0), (0,-1), (1,1); relation sums to 0
        D = M([[-1, 0, 1], [0, -1, 1]])
        K = kernel_lattice(D)
        assert K.ncols == 1
        assert in_lattice(K, (1, 1, 1))

    def test_kernel_saturated(self):
        # 2x + 2y = 0 has primitive kernel generator (1,-1), not (2,-2)
        K = kernel_lattice(M([[2, 2]]))
        assert in_lattice(K, (1, -1))


class TestLatticeSum:
    """The sum of sublattices as `multitangent` takes it: the span of the
    union of their generators, with no saturation."""

    def test_axes_sum_to_full(self):
        assert lattice_basis([(1, 0), (0, 1)], 2) == IntMatrix.identity(2)

    def test_even_sublattice_not_saturated(self):
        A = lattice_basis([(2, 0)], 2)
        B = lattice_basis([(0, 2)], 2)
        S = lattice_basis(A.columns() + B.columns(), 2)
        assert S.ncols == 2
        assert not in_lattice(S, (1, 0))
        assert in_lattice(S, (2, 0))
        assert abs(det(S)) == 4

    def test_line_edge_tangents(self):
        # tangents of the three rays of a tropical line span all of Z^2
        dirs = [(-1, 0), (0, -1), (1, 1)]
        total = lattice_basis((), 2)
        for d in dirs:
            total = lattice_basis(total.columns() + [d], 2)
        assert total == IntMatrix.identity(2)


def leibniz_det(rows):
    """The determinant as the signed sum over permutations, each sign read
    from the count of inversions."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


class TestDet:
    def test_matches_leibniz(self):
        """On random n <= 5 matrices, singular ones and ones whose leading
        entries vanish (so the elimination swaps rows) included, `det` and
        every minor of `exterior_power` equal the Leibniz expansion."""
        rng = random.Random(13)
        kinds = {"singular": 0, "swap": 0, "negative": 0}
        for _ in range(1500):
            n = rng.randint(0, 5)
            rows = [[rng.choice((0, rng.randint(-5, 5))) for _ in range(n)]
                    for _ in range(n)]
            if n and rng.random() < 0.15:
                rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
            if n > 1 and rng.random() < 0.4:
                rows[0][0] = 0
            want = leibniz_det(rows)
            assert det(M(rows, ncols=n)) == want, rows
            kinds["singular"] += want == 0
            kinds["swap"] += n > 1 and rows[0][0] == 0 and want != 0
            kinds["negative"] += want < 0
            if 1 < n <= 4:
                p = rng.randint(2, n)
                wedge = exterior_power(M(rows), p)
                assert wedge.rows == tuple(
                    tuple(leibniz_det([[rows[i][j] for j in J] for i in I])
                          for J in combinations(range(n), p))
                    for I in combinations(range(n), p)), (rows, p)
        assert min(kinds.values()) >= 200, kinds

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="non-square"):
            det(M([[1, 2]]))


class TestExteriorPower:
    def test_p1_is_matrix(self):
        A = M([[1, 2], [3, 4]])
        assert exterior_power(A, 1) == A

    def test_top_power_is_det(self):
        A = M([[1, 0], [0, 2]])
        assert exterior_power(A, 2) == M([[2]])

    def test_projection_wedge(self):
        # drop the last coordinate of R^3; wedge^2 in lex basis {01, 02, 12}
        P = M([[1, 0, 0], [0, 1, 0]])
        assert exterior_power(P, 2) == M([[1, 0, 0]])

    def test_p_zero_identity(self):
        assert exterior_power(M([[5]]), 0) == IntMatrix.identity(1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3),
           st.lists(st.integers(-4, 4), min_size=9, max_size=9),
           st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    def test_functorial(self, p, a, b):
        A = M([a[0:3], a[3:6], a[6:9]])
        B = M([b[0:2], b[2:4], b[4:6]])
        assert exterior_power(A * B, p) == exterior_power(A, p) * exterior_power(B, p)


def boundaries(nverts, edges, tris):
    """d1, d2 of a simplicial 2-complex, each simplex oriented by its sorted
    vertices."""
    d1 = [[0] * len(edges) for _ in range(nverts)]
    for j, (a, b) in enumerate(edges):
        d1[a][j] = -1
        d1[b][j] = 1
    d2 = [[0] * len(tris) for _ in edges]
    index = {e: k for k, e in enumerate(edges)}
    for j, (a, b, c) in enumerate(tris):
        for sign, e in ((1, (b, c)), (-1, (a, c)), (1, (a, b))):
            d2[index[e]][j] = sign
    return M(d1), M(d2)


def grid_boundaries(kind, n):
    """d1, d2 of the n x n grid on the torus or the Klein bottle, each square
    split along a diagonal; the Klein bottle glues the top edge back with a
    flip.  Simplices are oriented by their sorted vertices."""

    def v(i, j):
        if j >= n:
            j -= n
            if kind == "klein":
                i = -i
        return (i % n) * n + j

    tris = sorted({tuple(sorted(t)) for i in range(n) for j in range(n)
                   for t in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                             (v(i, j), v(i, j + 1), v(i + 1, j + 1)))})
    edges = sorted({e for a, b, c in tris for e in ((a, b), (a, c), (b, c))})
    return boundaries(n * n, edges, tris)


def sphere_boundaries():
    return boundaries(4, list(combinations(range(4), 2)), list(combinations(range(4), 3)))


def block_diagonal(top, bottom, ncols_top):
    """[[top, 0], [0, bottom]] from row lists; top has ncols_top columns."""
    ncols_bottom = len(bottom[0])
    return M([list(r) + [0] * ncols_bottom for r in top]
             + [[0] * ncols_top + list(r) for r in bottom])


class TestHomologyAt:
    def test_zero_maps(self):
        z_in = IntMatrix.zeros(3, 0)
        z_out = IntMatrix.zeros(0, 3)
        assert homology_at(z_in, z_out) == (3, [])

    def test_z_mod_2(self):
        d_in = M([[2]])
        d_out = IntMatrix.zeros(0, 1)
        assert homology_at(d_in, d_out) == (0, [2])

    def test_circle(self):
        # two vertices, two edges, constant Z coefficients
        d1 = M([[1, 1], [-1, -1]])
        d_in_for_h0 = d1
        d_out_for_h0 = IntMatrix.zeros(0, 2)
        assert homology_at(d_in_for_h0, d_out_for_h0) == (1, [])
        d_in_for_h1 = IntMatrix.zeros(2, 0)
        assert homology_at(d_in_for_h1, d1) == (1, [])

    def test_rejects_noncomposing(self):
        with pytest.raises(ValueError):
            homology_at(M([[1], [0]]), M([[1, 0]]))

    def test_rejects_single_nonzero_product_entry(self):
        # the 3-simplex sphere next to a filled triangle whose d1 has one
        # entry off by one: d_out * d_in is zero except at (vertex 6, face 4)
        D1, D2 = sphere_boundaries()
        t1 = [[-1, -1, 0], [1, 0, -1], [0, 1, 2]]
        t2 = [[1], [-1], [1]]
        d_out = block_diagonal(D1.rows, t1, 6)
        d_in = block_diagonal(D2.rows, t2, 4)
        product = d_out * d_in
        assert [(i, j) for i, r in enumerate(product.rows) for j, v in enumerate(r) if v] \
            == [(6, 4)]
        with pytest.raises(ValueError, match="compose"):
            homology_at(d_in, d_out)
        t1[2][2] = 1
        assert homology_at(d_in, block_diagonal(D1.rows, t1, 6)) == (0, [])

    def test_middle_dimension_mismatch(self):
        # d_in has 1 row but d_out has 3 columns, with and without entries
        for d_in in (IntMatrix.zeros(1, 0), M([[1, 1]])):
            with pytest.raises(ValueError, match="middle module dimension mismatch"):
                homology_at(d_in, M([[1, 0, 0]]))

    def test_checked_torus_never_builds_dense_rows(self):
        """homology_at reads a checked matrix through its sparse rows only:
        on the 20 x 20 grid torus it finds H_0 = Z, H_1 = Z^2 and H_2 = Z,
        and neither boundary matrix has built its dense rows."""
        d1, d2 = grid_boundaries("torus", 20)
        assert homology_at(d1, IntMatrix.zeros(0, d1.nrows)) == (1, [])
        assert homology_at(d2, d1) == (2, [])
        assert homology_at(IntMatrix.zeros(d2.ncols, 0), d2) == (1, [])
        assert d1._rows is None and d2._rows is None

    def test_rp2_six_vertices(self):
        tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
        edges = sorted({e for t in tris for e in combinations(t, 2)})
        assert len(edges) == 15
        assert all(sum(set(e) <= set(t) for t in tris) == 2 for e in edges)
        D1, D2 = boundaries(6, edges, tris)
        assert homology_at(D1, IntMatrix.zeros(0, 6)) == (1, [])
        assert homology_at(D2, D1) == (0, [2])
        assert homology_at(IntMatrix.zeros(10, 0), D2) == (0, [])

    def test_sphere_boundary_of_3_simplex(self):
        # textbook: boundary of a 3-simplex is S^2
        D1, D2 = sphere_boundaries()
        assert D1 * D2 == IntMatrix.zeros(D1.nrows, D2.ncols)
        h0 = homology_at(D1, IntMatrix.zeros(0, 4))
        h1 = homology_at(D2, D1)
        h2 = homology_at(IntMatrix.zeros(4, 0), D2)
        assert h0 == (1, [])
        assert h1 == (0, [])
        assert h2 == (1, [])

    def test_random_chain_complexes_match_minors(self):
        """A block complex Z^a -> Z^m -> Z^b, with diag(D1) on the first r1
        middle coordinates and diag(D2) from the last r2 of them, has
        H = Z^k + coker diag(D1) for k = m - r1 - r2.  Under random
        unimodular changes of basis, U on the middle module and V, W on the
        ends, d_out * d_in = 0 still holds and the entries mix into
        non-units.  homology_at gives k and the torsion that the minors of
        d_in give, and the rank agrees with the minors of d_out, whether
        d_in's reduction pairs every unit, some or none."""
        rng = random.Random(41)
        seen = {"paired": 0, "units left unpaired": 0, "torsion": 0}
        for _ in range(300):
            r1, k, r2 = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
            m, a, b = r1 + k + r2, r1 + rng.randint(0, 2), r2 + rng.randint(0, 2)
            D1 = [rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(r1)]
            D2 = [rng.choice((1, 1, 2, 3, 5)) for _ in range(r2)]
            blk_in = M([[D1[i] if i == j and i < r1 else 0 for j in range(a)]
                        for i in range(m)], ncols=a)
            blk_out = M([[D2[i] if i < r2 and j == r1 + k + i else 0 for j in range(m)]
                         for i in range(b)], ncols=m)
            U, U_inv = unimodular_pair(rng, m)
            d_in = U * blk_in * unimodular_pair(rng, a)[0]
            d_out = unimodular_pair(rng, b)[0] * blk_out * U_inv
            fac_in = invariant_factors_by_minors(d_in)
            torsion = [d for d in fac_in if d > 1]
            assert homology_at(d_in, d_out) == (k, torsion), (d_in, d_out)
            assert m - len(invariant_factors_by_minors(d_out)) - len(fac_in) == k
            paired = set()
            smith_diagonal(d_in.sparse_rows(), m, a, paired=paired)
            seen["paired"] += bool(paired)
            seen["units left unpaired"] += len(paired) < fac_in.count(1)
            seen["torsion"] += bool(torsion)
        assert min(seen.values()) >= 30, seen

    def test_non_unit_pivot_stops_the_pairing(self):
        """d_in = [[1, 0, 0]] + [[0, -2, 3], [0, 3, -3], [0, 2, -2]] as a
        block matrix.  The unit at (0, 0) retires and pairs row 0.  No unit
        is left, and the -2 at (3, 2), the least entry of a shortest column,
        has rows 1 and 2 beside it, so its isolation makes row operations
        that alter columns 3 and then 1 of d_out, which stay.  It ends at a
        unit at (1, 2), and the unit at (2, 1) follows; both retire
        unpaired.  d_out = [[0, 0, 2, -3]] keeps its invariant factor 1 on
        the unpaired columns 1, 2, 3; had rows 1 and 2 been paired too,
        column 3 alone would read 3."""
        d_in = M([[1, 0, 0], [0, -2, 3], [0, 3, -3], [0, 2, -2]])
        d_out = M([[0, 0, 2, -3]])
        paired = set()
        assert smith_diagonal(d_in.sparse_rows(), 4, 3, paired=paired) == [1, 1, 1]
        assert paired == {0}
        assert homology_at(d_in, d_out) == (0, [])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda m: st.lists(
        st.lists(st.integers(-4, 4), min_size=m, max_size=m), min_size=1, max_size=4)),
        st.data())
    def test_paired_columns_keep_the_factors(self, cols, data):
        """For B * A = 0, B without the columns that A's reduction pairs has
        B's invariant factors.  A is drawn by its columns; B's rows are
        drawn from the left kernel of A."""
        A = IntMatrix.from_columns(cols, len(cols[0]))
        K = kernel_lattice(A.transpose())
        C = M(data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=K.ncols,
                                          max_size=K.ncols), min_size=1, max_size=3)),
              ncols=K.ncols)
        B = C * K.transpose()
        assert B * A == IntMatrix.zeros(B.nrows, A.ncols)
        paired = set()
        smith_diagonal(A.sparse_rows(), A.nrows, A.ncols, paired=paired)
        kept = {i: {j: v for j, v in r.items() if j not in paired}
                for i, r in B.sparse_rows().items()}
        assert smith_diagonal(kept, B.nrows, B.ncols) \
            == smith_diagonal(B.sparse_rows(), B.nrows, B.ncols)

    @pytest.mark.parametrize("kind", ("torus", "klein"))
    @pytest.mark.parametrize("n", (6, 20))
    def test_second_pass_gets_the_unpaired_columns(self, monkeypatch, kind, n):
        """homology_at(d2, d1) makes two smith_diagonal calls.  d2's 2n^2 - 1
        unit pivots pair as many of the 3n^2 edges, and the d1 pass gets the
        other n^2 + 1 edges, two vertices each: about a third of d1's 6n^2
        nonzeros.  The three homology_at calls of a surface make 6 calls."""
        nnz = []

        def counted(entries_by_row, nrows, ncols, **kwargs):
            nnz.append(sum(map(len, entries_by_row.values())))
            return smith_diagonal(entries_by_row, nrows, ncols, **kwargs)

        monkeypatch.setattr(exactla, "smith_diagonal", counted)
        d1, d2 = grid_boundaries(kind, n)
        assert homology_at(d2, d1) == ((2, []) if kind == "torus" else (1, [2]))
        assert nnz == [6 * n * n, 2 * (n * n + 1)]
        homology_at(d1, IntMatrix.zeros(0, d1.nrows))
        homology_at(IntMatrix.zeros(d2.ncols, 0), d2)
        assert len(nnz) == 6


def unimodular_pair(rng, n):
    """A random n x n unimodular U and its inverse: 3n elementary row
    operations r_i += q * r_j on U, each undone on the inverse by the
    column operation c_j -= q * c_i."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    U_inv = [row[:] for row in U]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        U[i] = [x + q * y for x, y in zip(U[i], U[j])]
        for row in U_inv:
            row[j] -= q * row[i]
    return M(U, ncols=n), M(U_inv, ncols=n)


def hnf_route_solve_int(A, B):
    """Reference: the integer solve as it stood with its own triangular
    solve, which reads the pivot rows of H afresh on every call."""
    H, V = hnf(A)  # A V = H, columns of H in HNF
    pivots = []
    for j in range(H.ncols):
        col = column(H, j)
        nz = [i for i in range(H.nrows) if col[i] != 0]
        if nz:
            pivots.append((nz[0], j))
    xcols = []
    for b in B.columns():
        y = [0] * H.ncols
        r = list(b)
        for (i, j) in pivots:
            if r[i] % H.rows[i][j] != 0:
                return None
            c = r[i] // H.rows[i][j]
            y[j] = c
            if c:
                col = column(H, j)
                for k in range(len(r)):
                    r[k] -= c * col[k]
        if any(r):
            return None
        xcols.append(tuple(y))
    return V * IntMatrix.from_columns(xcols, H.ncols)


class TestSolve:
    def test_solve_int(self):
        A = M([[2, 0], [0, 3]])
        B = M([[4], [9]])
        X = solve_int(A, B)
        assert A * X == B
        assert solve_int(A, M([[1], [1]])) is None

    def test_back_substitution_matches_hnf_route(self):
        """Random column-HNF bases (with and without zero columns) against
        members, off-pivot multiples (a pivot > 1 that does not divide) and
        vectors off the rational span (a non-pivot row)."""
        rng = random.Random(29)
        kinds = {"member": 0, "pivot": 0, "span": 0}
        for _ in range(150):
            m, k = rng.randint(1, 5), rng.randint(0, 5)
            A = M([[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)], ncols=k)
            H = hnf(A)[0]
            basis = lattice_basis(A.columns(), m)
            piv = hnf_pivots(H)
            assert [(j, i) for j, i, col in piv] == [
                (j, next(i for i in range(m) if H.rows[i][j]))
                for j in range(k) if any(column(H, j))]
            assert hnf_pivots(basis) == [(j, i, col) for j, (_, i, col) in enumerate(piv)]
            cols = []
            for _ in range(4):
                y = [rng.randint(-3, 3) for _ in range(k)]
                b = list(H.apply(y)) if k else [0] * m
                kind = "member"
                bad = [(i, col[i]) for _, i, col in piv if col[i] > 1]
                if bad and rng.random() < 0.5:
                    i, p = rng.choice(bad)
                    b[i] += rng.randint(1, p - 1)
                    kind = "pivot"
                free = sorted(set(range(m)) - {i for _, i, _ in piv})
                if free and rng.random() < 0.5:
                    b[rng.choice(free)] += rng.choice((-1, 1)) * rng.randint(1, 3)
                    kind = "span"
                want = hnf_route_solve_int(A, M([b], ncols=m).transpose())
                assert (want is None) == (kind != "member"), (A, b)
                kinds[kind] += 1
                X = back_substitute(piv, H.ncols, M([b], ncols=m).transpose())
                assert (X is None) == (want is None)
                if X is not None and k:
                    assert H * X == M([b], ncols=m).transpose()
                assert in_lattice(basis, b) == (want is not None)
                cols.append(b)
            B = IntMatrix.from_columns(cols, m)
            assert solve_int(A, B) == hnf_route_solve_int(A, B)
        assert min(kinds.values()) >= 30, kinds

    def test_gauss_jordan_matches_fraction_reference(self):
        """On random integer systems with dependent rows, augmented columns,
        zero leading entries and no rows: the pivots are Fraction
        Gauss-Jordan's, pivot row k is d times its reduced row, and the rows
        past the rank vanish on the first ncols columns."""
        rng = random.Random(61)
        kinds = {"dependent": 0, "augmented nonzero": 0, "swap": 0}
        for _ in range(2000):
            n, extra = rng.randint(1, 5), rng.randint(0, 2)
            rows = []
            for _ in range(rng.randint(0, 6)):
                if rows and rng.random() < 0.4:
                    a, b = rng.choice(rows), rng.choice(rows)
                    k = rng.randint(-3, 3)
                    rows.append([x + k * y for x, y in zip(a, b)])
                else:
                    rows.append([rng.choice((0, rng.randint(-4, 4))) for _ in range(n + extra)])
            A, pivots, d = gauss_jordan(rows, n)
            R, want = fraction_rref(rows, n)
            assert pivots == want, (rows, n)
            r = len(pivots)
            assert len(A) == len(rows)
            assert all(type(x) is int for row in A for x in row)
            assert all(a == d * x for ra, rr in zip(A[:r], R) for a, x in zip(ra, rr)), rows
            assert not any(any(row[:n]) for row in A[r:]), rows
            kinds["dependent"] += r < len(rows)
            kinds["augmented nonzero"] += any(any(row[n:]) for row in A[r:])
            kinds["swap"] += bool(rows) and rows[0][0] == 0 and any(row[0] for row in rows)
        assert min(kinds.values()) >= 100, kinds

    def test_primitive_vector(self):
        assert primitive_vector((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
        assert primitive_vector((4, -6)) == (2, -3)
        assert primitive_vector((0, 0)) == (0, 0)

    def test_primitive_vector_is_positive_multiple(self):
        rng = random.Random(17)
        cases = [(), (0,), (0, Fraction(0), 0)]
        for _ in range(300):
            cases.append(tuple(
                rng.choice((rng.randint(-12, 12),
                            Fraction(rng.randint(-12, 12), rng.randint(1, 12))))
                for _ in range(rng.randint(1, 5))))
        for vec in cases:
            assert_primitive_multiple(vec)


def assert_primitive_multiple(vec):
    """`primitive_vector(vec)` is an int vector, primitive and a positive
    multiple of vec, or zeros when vec is zero."""
    out = primitive_vector(vec)
    assert len(out) == len(vec) and all(type(x) is int for x in out)
    if not any(vec):
        assert out == (0,) * len(vec)
        return
    assert gcd(*out) == 1
    scale = Fraction(next(o for o in out if o), next(x for x in vec if x))
    assert scale > 0 and all(o == scale * x for o, x in zip(out, vec)), vec


rationals = st.one_of(st.integers(-10**6, 10**6),
                      st.fractions(-10**6, 10**6, max_denominator=10**4))


class TestNumberRule:
    """`exact_rational` reads a value by the number rule, an int when it is
    integral and a Fraction only otherwise, and `scaled` and
    `primitive_vector` clear the denominators of the vectors it makes."""

    def test_exact_rational_keeps_the_number_rule(self):
        for x, want in ((7, 7), (Fraction(4, 2), 2), ("6/3", 2), (3.0, 3), (True, 1),
                        (0.5, Fraction(1, 2)), ("-3/4", Fraction(-3, 4))):
            got = exact_rational(x, "value", 0)
            assert got == want and type(got) is type(want), (x, got)
        q = Fraction(1, 3)
        assert exact_rational(q, "value", 0) is q

    @pytest.mark.parametrize("bad", [0.1, None, "x", "1/0", float("inf"), float("nan")],
                             ids=repr)
    def test_exact_rational_names_what_it_cannot_read(self, bad):
        with pytest.raises(ValueError, match=r"^offset 3 .* is not an exact rational$"):
            exact_rational(bad, "offset", 3)

    @given(st.lists(rationals, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_scaled_and_primitive_vector(self, vec):
        num, D = scaled(vec)
        assert D > 0 and all(type(x) is int for x in num)
        assert all(n == x * D for n, x in zip(num, vec)) and len(num) == len(vec)
        assert gcd(D, *num) == 1
        assert_primitive_multiple(vec)
