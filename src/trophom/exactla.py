"""Exact linear algebra over the integers.

One eliminator per job:
- Hermite normal forms for lattices: saturated kernels, sums of
  sublattices, completion to a basis, and one back-substitution against a
  column Hermite form for every integer solve and membership test;
- fraction-free (Bareiss) Gauss-Jordan elimination for rational row spaces
  and determinants: canonical integer equations, pivot columns, tie points,
  and every determinant and minor (exterior powers in the lexicographic
  wedge basis);
- the sparse Smith diagonal for invariant factors: the homology, rank plus
  torsion, of a composable pair of integer matrices.

The Smith diagonal pivots on unit entries of least Markowitz cost
len(row) * len(col), drawn from a heap that fill-in keeps fed, and scans for
the least |value| only when no unit is left.  Invariant factors do not depend
on the pivot order, so the order sets the cost and never the answer.

Every entry is a Python int, so arithmetic is exact at any size; a
non-integral entry is rejected, never truncated.  The public constructors
check this: `IntMatrix(...)`, `IntMatrix.from_columns` and
`LatticeSubspace.from_columns` convert integral entries (Fraction(4, 2),
3.0, True) and reject any other with a ValueError naming its row and column.
A matrix this module computes from checked matrices (`identity`, `zeros`,
`transpose`, products, `submatrix`, Hermite forms and their transforms,
back-substitution, exterior powers, lattice bases) is built by
`IntMatrix._trusted` without the check: integer arithmetic on ints yields
ints, so the check could only repeat itself.  Matrices are immutable once
built (which is why one may keep its sparse rows); all functions here are
pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, compress, repeat
from math import gcd, lcm


_INT = {int}


def _all_ints(rows):
    """Whether every entry of these tuples is an int: checked row by row,
    with no Python-level loop."""
    return all(map(_INT.issuperset, map(map, repeat(type), rows)))


def _int_rows(rows):
    """The rows as a tuple of tuples of ints.  An entry equal to an int is
    converted; any other raises ValueError naming its row and column."""
    rows = tuple(map(tuple, rows))
    if _all_ints(rows):
        return rows
    out = []
    for i, r in enumerate(rows):
        if set(map(type, r)) - _INT:
            # convert, and reject what int() would truncate
            t = tuple(map(int, r))
            if t != r:
                j = next(j for j, (a, b) in enumerate(zip(t, r)) if a != b)
                raise ValueError("non-integral entry %r at row %d, column %d" % (r[j], i, j))
            r = t
        out.append(r)
    return tuple(out)


def _column_rows(cols, nrows):
    """The rows of the matrix with the given columns, each of length nrows."""
    return tuple(zip(*cols)) if cols else ((),) * nrows


class IntMatrix:
    """Dense integer matrix, row-major, immutable.

    An entry equal to an int (Fraction(4, 2), 3.0, True) is stored as that
    int; any other entry raises ValueError naming its row and column.
    """

    __slots__ = ("nrows", "ncols", "rows", "_sparse")

    def __init__(self, rows, ncols=None):
        self.rows = rows = _int_rows(rows)
        self.nrows = len(rows)
        self._sparse = None
        if rows:
            self.ncols = len(rows[0])
            if any(len(r) != self.ncols for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols mismatch")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols

    @classmethod
    def _trusted(cls, rows, ncols):
        """A matrix from a tuple of equal-length tuples of ints, unchecked:
        for results this module computes from matrices already checked."""
        M = object.__new__(cls)
        M.rows = rows
        M.nrows = len(rows)
        M.ncols = ncols
        M._sparse = None
        return M

    @classmethod
    def zeros(cls, m, n):
        return cls._trusted(tuple((0,) * n for _ in range(m)), n)

    @classmethod
    def identity(cls, n):
        return cls._trusted(tuple(tuple(1 if i == j else 0 for j in range(n))
                                  for i in range(n)), n)

    @classmethod
    def from_columns(cls, cols, nrows):
        """The matrix with these columns, its entries checked as by
        `IntMatrix(...)`; a column of length other than nrows raises
        ValueError naming it."""
        cols = tuple(map(tuple, cols))
        if set(map(len, cols)) - {nrows}:
            j = next(j for j, c in enumerate(cols) if len(c) != nrows)
            raise ValueError("column %d has %d entries, not %d" % (j, len(cols[j]), nrows))
        return cls(_column_rows(cols, nrows), len(cols))

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return list(zip(*self.rows)) if self.rows else [()] * self.ncols

    def transpose(self):
        # a 0 x n matrix has n empty columns, which become n empty rows
        return IntMatrix._trusted(tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols,
                                  self.nrows)

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch %sx%s * %sx%s"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        ocols = other.ncols
        orows = other.rows
        out = []
        for r in self.rows:
            acc = [0] * ocols
            for k, a in enumerate(r):
                if a:
                    rk = orows[k]
                    for j in range(ocols):
                        acc[j] += a * rk[j]
            out.append(tuple(acc))
        return IntMatrix._trusted(tuple(out), ocols)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return "IntMatrix(%dx%d, %r)" % (self.nrows, self.ncols, [list(r) for r in self.rows])

    def is_zero(self):
        return all(x == 0 for r in self.rows for x in r)

    def submatrix(self, rows, cols):
        return IntMatrix._trusted(tuple(tuple(self.rows[i][j] for j in cols) for i in rows),
                                  len(cols))

    def apply(self, vec):
        """Matrix times integer vector, returned as a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("length mismatch")
        return tuple(sum(a * v for a, v in zip(r, vec)) for r in self.rows)

    def sparse_rows(self):
        """The nonzero entries as {row: {col: value}}, one dict per row.

        Read once and kept, since the matrix is immutable; callers must not
        mutate the dicts.
        """
        if self._sparse is None:
            cols = tuple(range(self.ncols))  # shared index objects, not one per entry
            self._sparse = {i: {j: r[j] for j in compress(cols, r)}
                            for i, r in enumerate(self.rows)}
        return self._sparse


def _hnf_rows_inplace(h, u=None):
    """Row Hermite form of the mutable list-of-lists h; row ops mirrored on u.

    Pivots positive, entries above each pivot reduced into [0, pivot).
    Returns the list of (row, col) pivot positions.
    """
    m = len(h)
    n = len(h[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        # gcd elimination below row r in column c
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
                        hi, hr = h[i], h[r]
                        for j in range(n):
                            hi[j] -= q * hr[j]
                        if u is not None:
                            ui, ur = u[i], u[r]
                            for j in range(len(ui)):
                                ui[j] -= q * ur[j]
                    if h[i][c]:
                        done = False
            if done:
                break
        if r < m and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                if u is not None:
                    u[r] = [-x for x in u[r]]
            p = h[r][c]
            for i in range(r):
                q = h[i][c] // p
                if q:
                    hi, hr = h[i], h[r]
                    for j in range(n):
                        hi[j] -= q * hr[j]
                    if u is not None:
                        ui, ur = u[i], u[r]
                        for j in range(len(ui)):
                            ui[j] -= q * ur[j]
            pivots.append((r, c))
            r += 1
    return pivots


def hnf_row(M: IntMatrix):
    """Canonical row Hermite normal form.  Returns (H, U) with U*M = H."""
    h = [list(r) for r in M.rows]
    u = [list(r) for r in IntMatrix.identity(M.nrows).rows]
    _hnf_rows_inplace(h, u)
    return (IntMatrix._trusted(tuple(map(tuple, h)), M.ncols),
            IntMatrix._trusted(tuple(map(tuple, u)), M.nrows))


def basis_completion(cols, dim):
    """Unimodular U with U * [cols] = [I; 0], or None when the columns do not
    extend to a basis of Z^dim.

    The row Hermite form of [cols] is unique, so it equals [I; 0] exactly
    when the columns are the first columns of some unimodular matrix.
    """
    H, U = hnf_row(IntMatrix.from_columns(cols, dim))
    if H.rows != tuple(tuple(int(i == j) for j in range(len(cols))) for i in range(dim)):
        return None
    return U


def hnf(M: IntMatrix):
    """Canonical column Hermite normal form.  Returns (H, V) with M*V = H.

    H's column span over Z equals M's; H is the unique such column HNF, so
    lattices compare by matrix equality.  Zero columns sit at the right.
    """
    Ht, Ut = hnf_row(M.transpose())
    return Ht.transpose(), Ut.transpose()


def _divisibility_pass(diag):
    """Make diag[i] | diag[i+1] by (gcd, lcm) replacements of positive factors."""
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


def smith_diagonal(entries_by_row, nrows, ncols):
    """Invariant-factor diagonal of a sparse integer matrix, no transforms.

    `entries_by_row` maps row index -> {col index: value}; an entry outside
    range(nrows) x range(ncols) raises ValueError.  Returns the list of
    invariant factors (nonzero, with divisibility) -- its length is the rank.

    Pivots: each step takes a unit entry (+-1) of least Markowitz cost
    len(row) * len(col) from a lazy min-heap, which fill-in feeds as it
    creates new units, so no step rescans the matrix; a unit pivot retires
    its row and column (a coreduction).  Only when no unit is left does a
    scan pick the entry of least |value|.  The invariant factors do not
    depend on the pivot order, so this choice moves the cost, not the result.
    """
    rows, cols = {}, {}
    for i, r in entries_by_row.items():
        r = {j: v for j, v in r.items() if v}
        if not r:
            continue
        if not 0 <= i < nrows or min(r) < 0 or max(r) >= ncols:
            j = next(j for j in r if not (0 <= i < nrows and 0 <= j < ncols))
            raise ValueError("entry (%d, %d) outside a %dx%d matrix" % (i, j, nrows, ncols))
        rows[i] = r
        for j in r:
            cols.setdefault(j, set()).add(i)
    # every unit entry has at least one (cost, i, j) here; costs may be stale
    heap = [(len(r) * len(cols[j]), i, j)
            for i, r in rows.items() for j, v in r.items() if v == 1 or v == -1]
    heapify(heap)
    units = 0
    others = []

    def drop(i, j):
        del rows[i][j]
        cols[j].discard(i)
        if not cols[j]:
            del cols[j]
        if not rows[i]:
            del rows[i]

    def setval(i, j, v):
        if v == 0:
            if j in rows.get(i, ()):
                drop(i, j)
        else:
            r = rows.setdefault(i, {})
            r[j] = v
            c = cols.setdefault(j, set())
            c.add(i)
            if v == 1 or v == -1:
                heappush(heap, (len(r) * len(c), i, j))

    def row_op(i, i0, q):
        """row i -= q * row i0"""
        for j, w in list(rows[i0].items()):
            setval(i, j, rows.get(i, {}).get(j, 0) - q * w)

    def col_op(j, j0, q):
        """col j -= q * col j0"""
        for i in list(cols[j0]):
            setval(i, j, rows.get(i, {}).get(j, 0) - q * rows[i][j0])

    def unit_pivot():
        """A unit entry of least current cost, or None when no unit is left."""
        while heap:
            cost, i, j = heappop(heap)
            v = rows.get(i, {}).get(j)
            if v != 1 and v != -1:
                continue  # gone, or no longer a unit
            now = len(rows[i]) * len(cols[j])
            if now > cost:
                heappush(heap, (now, i, j))
                continue
            return i, j
        return None

    while rows:
        piv = unit_pivot()
        if piv is not None:
            # coreduction: clear column j0 with row i0, then retire the pair;
            # the leftover entries of row i0 die under column ops that touch
            # nothing else because column j0 is now a unit vector
            i0, j0 = piv
            p = rows[i0][j0]
            for i in list(cols[j0]):
                if i != i0:
                    row_op(i, i0, rows[i][j0] * p)
            for j in list(rows[i0]):
                drop(i0, j)
            units += 1
            continue
        best = None
        for i, r in rows.items():
            for j, v in r.items():
                cost = (abs(v), len(r) * len(cols[j]))
                if best is None or cost < best:
                    best, i0, j0 = cost, i, j
        p = rows[i0][j0]
        # reduce the pivot's row and column modulo p
        for i in list(cols[j0]):
            if i != i0:
                q = rows[i][j0] // p
                if q:
                    row_op(i, i0, q)
        for j in list(rows[i0]):
            if j != j0:
                q = rows[i0][j] // p
                if q:
                    col_op(j, j0, q)
        dirty = any(i != i0 for i in cols[j0]) or any(j != j0 for j in rows[i0])
        if dirty:
            continue  # remainders are smaller than |p|; re-pivot
        drop(i0, j0)
        others.append(abs(p))
    # a 1 divides everything, so only the other factors need the pass
    return [1] * units + _divisibility_pass(others)


@dataclass(frozen=True)
class LatticeSubspace:
    """A saturated-or-not sublattice of Z^ambient, basis in column HNF.

    The basis is the canonical column Hermite form of any generating set, so
    two equal sublattices have equal basis matrices.
    """

    ambient: int
    basis: IntMatrix  # ambient x rank, Z-independent columns

    @classmethod
    def from_columns(cls, cols, ambient):
        """The sublattice the columns span.  A non-integral entry raises
        ValueError naming its row (coordinate) and column (generator), and
        so does a column whose length is not `ambient`."""
        # row HNF of the generators as rows is the transposed column HNF; no
        # transform is needed, so none is built
        cols = tuple(map(tuple, cols))
        if set(map(len, cols)) - {ambient} or not _all_ints(cols):
            # the checked IntMatrix.from_columns converts, or names the bad
            # column or entry
            cols = IntMatrix.from_columns(cols, ambient).columns()
        h = [list(c) for c in cols]
        _hnf_rows_inplace(h)
        cols = [r for r in h if any(r)]
        return cls(ambient, IntMatrix._trusted(_column_rows(cols, ambient), len(cols)))

    @classmethod
    def zero(cls, ambient):
        return cls.from_columns([], ambient)

    @classmethod
    def full(cls, ambient):
        return cls(ambient, IntMatrix.identity(ambient))

    @property
    def rank(self):
        return self.basis.ncols

    def contains(self, vec):
        col = IntMatrix.from_columns([tuple(vec)], self.ambient)
        return back_substitute(hnf_pivots(self.basis), self.rank, col) is not None


def lattice_sum(A: LatticeSubspace, B: LatticeSubspace) -> LatticeSubspace:
    """Z-span of the union of generators; deliberately not saturated."""
    if A.ambient != B.ambient:
        raise ValueError("ambient rank mismatch")
    return LatticeSubspace.from_columns(A.basis.columns() + B.basis.columns(), A.ambient)


def kernel_lattice(M: IntMatrix) -> LatticeSubspace:
    """The saturated sublattice {v in Z^ncols : M v = 0}."""
    H, V = hnf(M)
    zero_cols = [j for j in range(H.ncols)
                 if all(H.rows[i][j] == 0 for i in range(H.nrows))]
    return LatticeSubspace.from_columns([V.column(j) for j in zero_cols], M.ncols)


def hnf_pivots(H: IntMatrix):
    """The pivots of a matrix in column Hermite form, read once for
    `back_substitute`: (column index, pivot row, column) per nonzero column,
    in column order.  In column HNF the pivot row of a column is its first
    nonzero entry, and it increases from column to column."""
    out = []
    for j, col in enumerate(H.columns()):
        i = next((i for i, x in enumerate(col) if x), None)
        if i is not None:
            out.append((j, i, col))
    return out


def back_substitute(pivots, ncols, B: IntMatrix):
    """Integer X with H X = B for H in column Hermite form with `ncols`
    columns, given by its pivots (`hnf_pivots(H)`); None when a column of B
    is not in the Z-span of H's columns.

    Columns after j vanish on the pivot row of column j, so one pass in
    column order fixes each coefficient in turn; a pivot that does not
    divide, or a remainder left at the end, proves the column is not in the
    span.  Zero columns of H get coefficient 0.
    """
    xcols = []
    for b in B.columns():
        y = [0] * ncols
        r = list(b)
        for j, i, col in pivots:
            c, rem = divmod(r[i], col[i])
            if rem:
                return None
            if c:
                y[j] = c
                for k, x in enumerate(col):
                    if x:
                        r[k] -= c * x
        if any(r):
            return None
        xcols.append(y)
    return IntMatrix._trusted(_column_rows(xcols, ncols), len(xcols))


def solve_int(A: IntMatrix, B: IntMatrix):
    """Integer X with A X = B, or None.  A need not be square."""
    H, V = hnf(A)  # A V = H, columns of H in HNF
    Y = back_substitute(hnf_pivots(H), H.ncols, B)
    return None if Y is None else V * Y


def gauss_jordan(rows, ncols):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows,
    pivoting on the first ncols columns; columns past ncols ride along.

    Returns (A, pivots, d): A holds the reduced rows as lists of ints, row k
    with its pivot at pivots[k], alone in its column, and d is the last
    pivot taken (1 with none).  A swap of two rows negates one of them, a
    row operation of determinant 1.  Each step with pivot p on row r sets
    every other row to (p * row - row[c] * A[r]) / d_prev, an exact
    division; by induction every row of A is then d times the row that
    rational Gauss-Jordan with unit pivots, swapping and negating the same
    rows, holds.  Row signs do not move the reduced row echelon form, so
    pivot row k is d times its row; the rows past the rank vanish on the
    first ncols columns.  The entries are minors of the input with some rows
    negated (Sylvester's identity), so they stay integers of bounded size.
    The k-th pivot is the minor on the first k pivot columns and the first k
    rows as swapped and negated, so on a square matrix of full rank d is its
    determinant.
    """
    A = [list(row) for row in rows]
    pivots = []
    d = 1
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(A)) if A[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            A[r], A[sel] = A[sel], [-x for x in A[r]]
        top = A[r]
        p = top[c]
        for i, row in enumerate(A):
            if i != r:
                f = row[c]
                A[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
        d = p
        pivots.append(c)
    return A, pivots, d


def det(M: IntMatrix) -> int:
    """Exact determinant: the last pivot of `gauss_jordan`, or 0 when the
    elimination finds fewer pivots than columns."""
    if M.nrows != M.ncols:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d = gauss_jordan(M.rows, M.ncols)
    return d if len(pivots) == M.ncols else 0


def exterior_power(M: IntMatrix, p: int) -> IntMatrix:
    """Induced map on p-th exterior powers, lexicographic wedge basis.

    Rows are indexed by p-subsets of row indices, columns by p-subsets of
    column indices, both in lexicographic order; the entry is the `det` of
    the corresponding p x p submatrix.  For p >= 0 the shape is
    C(k, p) x C(l, p), so p == 0 gives the 1x1 identity and p past a side
    gives an empty side; p < 0 gives the 0x0 matrix.
    """
    if p < 0:
        return IntMatrix._trusted((), 0)
    if p == 1:
        return M  # the 1 x 1 minors are the entries
    col_sets = list(combinations(range(M.ncols), p))
    out = tuple(tuple(det(M.submatrix(I, J)) for J in col_sets)
                for I in combinations(range(M.nrows), p))
    return IntMatrix._trusted(out, len(col_sets))


def homology_at(d_in: IntMatrix, d_out: IntMatrix):
    """Rank and torsion of ker(d_out)/im(d_in).

    d_in maps into the middle module, d_out maps out of it; requires
    d_out * d_in = 0, checked as a sparse product.  Torsion is returned as
    the list of invariant factors > 1.  Because ker(d_out) is saturated, the
    torsion equals the torsion of the cokernel of d_in, which is what the
    Smith form of d_in delivers directly.
    """
    if d_in.nrows != d_out.ncols:
        raise ValueError("middle module dimension mismatch: d_in has %d rows, "
                         "d_out has %d columns" % (d_in.nrows, d_out.ncols))
    sp_in = d_in.sparse_rows()
    sp_out = d_out.sparse_rows()
    for r in sp_out.values():
        acc = {}
        for k, a in r.items():
            for j, b in sp_in[k].items():
                acc[j] = acc.get(j, 0) + a * b
        if any(acc.values()):
            raise ValueError("boundary maps do not compose to zero")
    fac_in = smith_diagonal(sp_in, d_in.nrows, d_in.ncols)
    fac_out = smith_diagonal(sp_out, d_out.nrows, d_out.ncols)
    rank = d_out.ncols - len(fac_out) - len(fac_in)
    torsion = [d for d in fac_in if d > 1]
    return rank, torsion


def primitive_vector(vec):
    """The primitive integer vector on the ray of a rational vector: scale by
    the lcm of the entries' denominators, then divide by the gcd of the
    resulting integers.  Ints and Fractions both carry `numerator` and
    `denominator`, so no entry is converted.  The zero vector (and ())
    comes back as integer zeros."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (denom // x.denominator) for x in vec]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)
