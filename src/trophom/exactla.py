"""Exact linear algebra over the integers.

One eliminator per job:
- Hermite normal forms for lattices: saturated kernels, sums of
  sublattices, completion to a basis, and one back-substitution against a
  column Hermite form for every integer solve and membership test.  A
  sublattice is its canonical basis matrix (`lattice_basis`), the column
  Hermite form of any generating set, and its rank is the column count;
- fraction-free (Bareiss) Gauss-Jordan elimination for rational row spaces
  and determinants: canonical integer equations, pivot columns, tie points,
  and every determinant and minor (exterior powers in the lexicographic
  wedge basis);
- the sparse Smith diagonal for invariant factors: the homology, rank plus
  torsion, of a composable pair of integer matrices.

Both row eliminators, `_hermite` and `gauss_jordan`, let the columns past
the ones they pivot on ride along, so a transform is read off an identity
appended to the rows.

The Smith diagonal has one pivot rule and one elimination step.  A lazy
heap of every nonzero entry gives the pivot of least |value|, ties broken by
the Markowitz cost len(row) * len(col); the step reduces the pivot's column
modulo the pivot.  A unit pivot then retires with its whole row and column
in one move.  Any other pivot reduces its row too and retires once it
stands alone; otherwise it goes back on the heap, and a remainder of smaller
|value| is the next pivot, so the loop ends.  Invariant factors do not
depend on the pivot order, so the order sets the cost and never the answer.

Every entry is a Python int, so arithmetic is exact at any size; a
non-integral entry is rejected, never truncated.  The public constructors
check this: `IntMatrix(...)`, `IntMatrix.from_columns` and `lattice_basis`
convert integral entries (Fraction(4, 2), 3.0, True, 0.0) and reject any
other (2.5, None, "") with a ValueError naming its row and column, when
the matrix is built.  The checked `IntMatrix` constructor is sparse first:
per row, `compress` finds the nonzero entries and only those get an exact
type check, and `count(0)` proves every other entry equals 0.  Those
C-level passes leave O(nonzeros) Python work, and the sparse rows come out
of the same check.  The dense rows are built from them on first read,
every zero an int 0, so `homology_at` on a large sparse matrix never
builds them; a `_trusted` matrix derives its sparse rows the same way.
A matrix this module computes from checked matrices
(`identity`, `zeros`, `transpose`, products, `submatrix`, Hermite forms and
their transforms, back-substitution, exterior powers, lattice bases) is
built by `IntMatrix._trusted` without the check: integer arithmetic on ints
yields ints, so the check could only repeat itself.  The same holds where another
module builds a matrix from ints it made itself: the edges between a
subdivision's support points (`normalized_simplex_volume`), canonical
equation normals (`tangent_lattice`), a polyhedron's rays and lineality
(`recession`) and the projected exponent differences of
`stratum_pieces`.  Matrices are immutable once built (which is why one may
keep both forms); all functions here are pure.

`int_rows` applies the same rule where other modules take integer vectors
from their callers: support points, exponents, fan and polyhedron rays,
facet normals and lineality vectors.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations, compress, repeat
from math import gcd, lcm


_INT = {int}


def _all_ints(rows):
    """Whether every entry of these tuples is an int: checked row by row,
    with no Python-level loop."""
    return all(map(_INT.issuperset, map(map, repeat(type), rows)))


def _int_row(r, i, kind="row"):
    """Row i, the tuple r, as a tuple of ints.  An entry equal to an int is
    converted; any other (2.5, None, "") raises ValueError naming its row
    (`kind` i) and column."""
    out = []
    for j, x in enumerate(r):
        try:
            y = int(x)
        except (TypeError, ValueError, OverflowError):
            y = None
        if y is None or y != x:
            raise ValueError("non-integral entry %r at %s %d, column %d" % (x, kind, i, j))
        out.append(y)
    return tuple(out)


def int_rows(rows, kind):
    """The rows as a list of tuples of ints, by the rule of `IntMatrix`: an
    entry equal to an int is converted, and any other raises ValueError
    naming it as column j of `kind` i ("ray 1, column 0").  Rows of ints
    alone are checked with no Python-level loop."""
    rows = list(map(tuple, rows))
    if _all_ints(rows):
        return rows
    return [_int_row(r, i, kind) for i, r in enumerate(rows)]


def _column_rows(cols, nrows):
    """The rows of the matrix with the given columns, each of length nrows."""
    return tuple(zip(*cols)) if cols else ((),) * nrows


class IntMatrix:
    """Integer matrix, row-major, immutable.

    An entry equal to an int (Fraction(4, 2), 3.0, True, 0.0, False) is
    stored as that int; any other entry raises ValueError naming its row and
    column.  The constructor checks sparse first (see the module docstring)
    and keeps the sparse rows; `_trusted` keeps the dense rows.  Each form
    is derived from the other on first read (`rows`, `sparse_rows`).
    """

    __slots__ = ("nrows", "ncols", "_rows", "_sparse")

    def __init__(self, rows, ncols=None):
        rows = tuple(map(tuple, rows))
        if rows:
            n = len(rows[0])
            if ncols is not None and ncols != n:
                raise ValueError("ncols mismatch")
        elif ncols is None:
            raise ValueError("empty matrix needs explicit ncols")
        else:
            n = ncols
        idx = tuple(range(n))  # shared index objects, not one per entry
        sparse = {}
        for i, r in enumerate(rows):
            if len(r) != n:
                raise ValueError("ragged rows")
            d = {j: r[j] for j in compress(idx, r)}
            # the nonzero entries are ints, and every other one equals 0
            if len(d) + r.count(0) != n or not _INT.issuperset(map(type, d.values())):
                r = _int_row(r, i)
                d = {j: r[j] for j in compress(idx, r)}
            sparse[i] = d
        self.nrows = len(rows)
        self.ncols = n
        self._rows = None
        self._sparse = sparse

    @classmethod
    def _trusted(cls, rows, ncols):
        """A matrix from a tuple of equal-length tuples of ints, unchecked:
        for results computed from matrices already checked, or from ints
        the package made itself (see the module docstring)."""
        M = object.__new__(cls)
        M._rows = rows
        M.nrows = len(rows)
        M.ncols = ncols
        M._sparse = None
        return M

    @property
    def rows(self):
        """The entries as a tuple of row tuples; a checked matrix builds
        them from its sparse rows on first read (see the module docstring)."""
        if self._rows is None:
            n = self.ncols
            out = []
            for r in self._sparse.values():
                row = [0] * n
                for j, v in r.items():
                    row[j] = v
                out.append(tuple(row))
            self._rows = tuple(out)
        return self._rows

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

    def submatrix(self, rows, cols):
        entries = self.rows
        return IntMatrix._trusted(tuple(tuple(entries[i][j] for j in cols) for i in rows),
                                  len(cols))

    def apply(self, vec):
        """Matrix times integer vector, returned as a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("length mismatch")
        return tuple(sum(a * v for a, v in zip(r, vec)) for r in self.rows)

    def sparse_rows(self):
        """The nonzero entries as {row: {col: value}}, one dict per row.

        Read once and kept, since the matrix is immutable; callers must not
        mutate the dicts.  The checked constructor keeps them from its check;
        a `_trusted` matrix builds them from its dense rows on first read.
        """
        if self._sparse is None:
            cols = tuple(range(self.ncols))  # shared index objects, not one per entry
            self._sparse = {i: {j: r[j] for j in compress(cols, r)}
                            for i, r in enumerate(self.rows)}
        return self._sparse


def _hermite(h, ncols):
    """Row Hermite form, in place, of the first `ncols` columns of the
    mutable list of rows h; the columns past `ncols` ride along, so [M | I]
    becomes [H | U] with U * M = H.

    Pivots positive, entries above each pivot reduced into [0, pivot); the
    rows past the rank vanish on the first `ncols` columns.
    """
    m = len(h)
    r = 0
    for c in range(ncols):
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
            h[r], h[best] = h[best], h[r]
            top = h[r]
            p = top[c]
            done = True
            for i in range(r + 1, m):
                q = h[i][c] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], top)]
                if h[i][c]:
                    done = False
            if done:
                break
        if h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            top = h[r]
            p = top[c]
            for i in range(r):
                q = h[i][c] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], top)]
            r += 1


def hnf_row(M: IntMatrix):
    """Canonical row Hermite normal form.  Returns (H, U) with U*M = H: one
    `_hermite` of [M | I], split after M's columns."""
    n = M.ncols
    h = [[*row, *(int(i == j) for j in range(M.nrows))] for i, row in enumerate(M.rows)]
    _hermite(h, n)
    return (IntMatrix._trusted(tuple(tuple(r[:n]) for r in h), n),
            IntMatrix._trusted(tuple(tuple(r[n:]) for r in h), M.nrows))


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
    """The invariant factors of the diagonal matrix of these positive
    factors, as many as there are: one insertion fold over the sorted
    factors.  A factor that the chain's top divides is appended.  Any other
    factor x is merged downward: chain[i] becomes lcm(chain[i], x) and x
    becomes their gcd, which divides chain[i], until x is 1; what is left of
    x goes in front.  Each merge keeps the product and the divisibility."""
    chain = []
    for x in sorted(diag):
        if not chain or x % chain[-1] == 0:
            chain.append(x)
            continue
        i = len(chain) - 1
        while i >= 0 and x > 1:
            g = gcd(chain[i], x)
            chain[i], x = chain[i] // g * x, g
            i -= 1
        chain.insert(0, x)
    return chain


def smith_diagonal(entries_by_row, nrows, ncols):
    """Invariant-factor diagonal of a sparse integer matrix, no transforms.

    `entries_by_row` maps row index -> {col index: value}; an entry outside
    range(nrows) x range(ncols) raises ValueError.  Returns the list of
    invariant factors (nonzero, with divisibility) -- its length is the rank.

    One pivot rule: a lazy min-heap holds every nonzero entry keyed by
    (|value|, Markowitz cost len(row) * len(col)), and each step pops the
    live entry p = (i0, j0) of least key.  Row operations reduce column j0
    modulo p.  A unit p is then alone in its column, so column operations
    clear its row without touching any other row: row i0 and column j0
    retire at once (a coreduction).  For any other p, once it is alone in
    its column a column operation touches row i0 alone, so every other entry
    w of that row becomes w mod p.  If p is then alone in its row too, it
    retires as a diagonal entry; if not, it goes back on the heap.  A step
    that leaves a remainder lowers the least |value| in the matrix, which is
    a positive integer, so the loop ends.  The invariant factors do not
    depend on the pivot order, so the rule moves the cost, not the result.
    """
    rows, cols = {}, {}
    for i, r in entries_by_row.items():
        # a private copy to reduce in place; only a row with a zero is filtered
        r = {j: v for j, v in r.items() if v} if 0 in r.values() else dict(r)
        if not r:
            continue
        if not 0 <= i < nrows or min(r) < 0 or max(r) >= ncols:
            j = next(j for j in r if not (0 <= i < nrows and 0 <= j < ncols))
            raise ValueError("entry (%d, %d) outside a %dx%d matrix" % (i, j, nrows, ncols))
        rows[i] = r
        for j in r:
            c = cols.get(j)
            if c is None:
                cols[j] = {i}
            else:
                c.add(i)
    # every live entry keeps a key with its current |value| on the heap
    # (its cost may be stale), so the heap empties only with the matrix
    heap = [(abs(v), len(r) * len(cols[j]), i, j)
            for i, r in rows.items() for j, v in r.items()]
    heapify(heap)
    units = 0
    others = []
    while rows:
        a, cost, i0, j0 = heappop(heap)
        r0 = rows.get(i0)
        p = None if r0 is None else r0.get(j0)
        if p is None or abs(p) != a:
            continue  # gone, or changed since this key was pushed
        c0 = cols[j0]
        now = len(r0) * len(c0)
        if now > cost:
            heappush(heap, (a, now, i0, j0))
            continue
        # j runs over the columns of the live row i0, so cols[j] exists and
        # holds i0; a row i != i0 joins or leaves it, and it never empties
        for i in [i for i in c0 if i != i0]:
            r = rows[i]
            q = r[j0] // p
            for j, w in r0.items():
                v = r.get(j, 0) - q * w
                if v:
                    r[j] = v
                    c = cols[j]
                    c.add(i)
                    heappush(heap, (abs(v), len(r) * len(c), i, j))
                elif j in r:
                    del r[j]
                    cols[j].discard(i)
            if not r:
                del rows[i]
        if a == 1:
            # alone in its column: row i0 and column j0 retire at once
            del rows[i0]
            for j in r0:
                c = cols[j]
                c.discard(i0)
                if not c:
                    del cols[j]
            units += 1
            continue
        if len(c0) == 1:
            for j in [j for j in r0 if j != j0]:
                w = r0[j] % p
                if not w:
                    del r0[j]
                    c = cols[j]
                    c.discard(i0)
                    if not c:
                        del cols[j]
                elif w != r0[j]:
                    r0[j] = w
                    heappush(heap, (abs(w), len(r0) * len(cols[j]), i0, j))
            if len(r0) == 1:
                del rows[i0]
                del cols[j0]
                others.append(a)
                continue
        heappush(heap, (a, len(r0) * len(c0), i0, j0))
    # a 1 divides everything, so only the other factors need the pass
    return [1] * units + _divisibility_pass(others)


def lattice_basis(cols, ambient) -> IntMatrix:
    """The canonical basis of the sublattice of Z^ambient the columns span:
    their column Hermite form with its zero columns dropped, ambient x rank
    with Z-independent columns, so two equal sublattices have equal basis
    matrices.  A non-integral entry raises ValueError naming its row
    (coordinate) and column (generator), and so does a column whose length
    is not `ambient`."""
    # row HNF of the generators as rows is the transposed column HNF; no
    # transform is needed, so none is built
    cols = tuple(map(tuple, cols))
    if set(map(len, cols)) - {ambient} or not _all_ints(cols):
        # the checked IntMatrix.from_columns converts, or names the bad
        # column or entry
        cols = IntMatrix.from_columns(cols, ambient).columns()
    h = [list(c) for c in cols]
    _hermite(h, ambient)
    cols = [r for r in h if any(r)]
    return IntMatrix._trusted(_column_rows(cols, ambient), len(cols))


def kernel_lattice(M: IntMatrix) -> IntMatrix:
    """The basis (`lattice_basis`) of the saturated sublattice
    {v in Z^ncols : M v = 0}.

    One `_hermite` of [M^T | I]: U * M^T = H with U unimodular, so the rows
    of U beside the zero rows of H are a basis of the kernel, which is
    saturated because it is a kernel.
    """
    a = M.nrows
    h = [[*col, *(int(i == j) for j in range(M.ncols))] for i, col in enumerate(M.columns())]
    _hermite(h, a)
    return lattice_basis([r[a:] for r in h if not any(r[:a])], M.ncols)


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
