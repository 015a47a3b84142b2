import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometric_reference import contains, fan_cone, geometry_key, meet
from trophom import polyhedra
from trophom.complexes import build_pair
from trophom.exactla import IntMatrix, det
from trophom.polyhedra import (
    QPolyhedron,
    cone_covered_by,
    cone_meets_relint,
)
from trophom.tropio import (
    FanError,
    FanSpec,
    ParseError,
    TropicalPolynomial,
    fan_text,
    load_fan,
    newton_polytope,
    normal_fan,
    parse_polynomial,
    polynomial_text,
)


class TestParse:
    def test_standard_line(self):
        f = parse_polynomial("max(0, x1, x2)")
        assert f.n_vars == 2
        assert f.terms == (((0, 0), 0), ((0, 1), 0), ((1, 0), 0))

    def test_rational_coefficient(self):
        f = parse_polynomial("max(3/2 + 2*x1)")
        assert f.terms == (((2,), Fraction(3, 2)),)

    def test_duplicate_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("max(0, x1, x1)")

    def test_duplicate_exponent_names_its_term(self):
        with pytest.raises(ParseError, match=r"duplicate exponent vector \(1,\)") as e:
            parse_polynomial("max(0,\n  1 + x1,\n  2 + x1)")
        assert (e.value.line, e.value.col) == (3, 3)

    def test_variable_count_is_the_largest_index(self):
        f = parse_polynomial("max(0, x3, 2*x1)")
        assert f.n_vars == 3
        assert f.terms == (((0, 0, 0), 0), ((0, 0, 1), 0), ((2, 0, 0), 0))
        assert parse_polynomial("max(0)").n_vars == 0

    def test_zero_denominator_has_location(self):
        with pytest.raises(ParseError, match="zero denominator") as e:
            parse_polynomial("max(0, 1/0 + x1)")
        assert (e.value.line, e.value.col) == (1, 11)

    def test_direct_construction_checks_exponents(self):
        """A directly built polynomial parsed no text, so its checks raise a
        plain ValueError that names the term and its exponent."""
        with pytest.raises(ValueError, match=r"^exponent 1 \(1,\) has 1 coordinates, not 2$") as e:
            TropicalPolynomial(2, (((0, 0), 0), ((1,), 0)))
        assert not isinstance(e.value, ParseError)
        with pytest.raises(ValueError, match=r"^exponents 0 and 1 are both \(1, 0\)$") as e:
            TropicalPolynomial(2, (((1, 0), 0), ((1, 0), 1)))
        assert not isinstance(e.value, ParseError)

    def test_constructor_reads_coefficients_as_fractions(self):
        """The constructor normalizes what `parse_polynomial` would, so a
        float coefficient reaches `build_pair` as a Fraction."""
        f = TropicalPolynomial(2, (((0, 0), 0.5), ((0, 1), 1), ((1, 0), 0)))
        assert f.terms == (((0, 0), Fraction(1, 2)), ((0, 1), 1), ((1, 0), 0))
        assert {type(c) for e, c in f.terms} == {Fraction}
        assert f == parse_polynomial("max(1/2, x2 + 1, x1)")
        pair = build_pair(f, load_fan("dim 2\n"))
        assert pair.f.terms[0][1] == Fraction(1, 2)
        assert (pair.X.f_vector(), pair.Yref.f_vector()) == ([1, 3], [1, 3, 3])
        # ints, Fractions and rational strings give the Fraction they denote
        g = TropicalPolynomial(1, (((0,), "1/3"), ((1,), Fraction(-2, 4)), ((2,), 7)))
        assert [c for e, c in g.terms] == [Fraction(1, 3), Fraction(-1, 2), 7]

    def test_float_coefficient_must_be_exact(self):
        """A float is taken when it is the rational its repr spells; 0.1 is
        not (its binary value is 3602879701896397/2^55), so it raises
        ValueError naming its term instead of being read as that value."""
        f = TropicalPolynomial(1, (((0,), 3.0), ((1,), -0.25)))
        assert f.terms == (((0,), 3), ((1,), Fraction(-1, 4)))
        with pytest.raises(ValueError, match=r"^coefficient 1 0\.1 is not an exact rational$"):
            TropicalPolynomial(1, (((0,), 0), ((1,), 0.1)))
        with pytest.raises(ValueError, match=r"^coefficient 0 1e\+300 is not an exact rational$"):
            TropicalPolynomial(1, (((0,), 1e300), ((1,), 0)))

    @pytest.mark.parametrize("bad", [None, float("inf"), float("-inf"), float("nan"), "x",
                                     "1/0", (1, 2)], ids=repr)
    def test_unreadable_coefficient_names_its_term(self, bad):
        """A coefficient that `Fraction` cannot read raises ValueError, not
        the TypeError or OverflowError of `Fraction` itself, and names the
        term by its position, as the exponent checks do."""
        with pytest.raises(ValueError, match=r"^coefficient 2 .* is not an exact rational$") as e:
            TropicalPolynomial(1, (((0,), 0), ((1,), 1), ((2,), bad)))
        assert not isinstance(e.value, ParseError)

    def test_constructor_checks_its_size(self):
        """A negative variable count, or no term at all, is rejected where
        the polynomial is built: `polynomial_text` would write "max()",
        which no reader takes."""
        with pytest.raises(ValueError, match=r"^negative variable count -1$"):
            TropicalPolynomial(-1, [((), 0)])
        for n in (0, 2, -1):
            with pytest.raises(ValueError):
                TropicalPolynomial(n, [])
        with pytest.raises(ValueError, match=r"^a tropical polynomial needs at least one term$"):
            TropicalPolynomial(2, [])
        assert polynomial_text(TropicalPolynomial(0, [((), 4)])) == "max(4)"

    def test_padding_cannot_shrink(self):
        with pytest.raises(ValueError, match="cannot shrink the variable count"):
            parse_polynomial("max(0, x1, x2)").padded(1)

    def test_variable_index_zero_has_location(self):
        with pytest.raises(ParseError, match="variable indices start at 1") as e:
            parse_polynomial("max(0, x0)")
        assert (e.value.line, e.value.col) == (1, 10)
        assert str(e.value) == "variable indices start at 1 at line 1, column 10"

    def test_syntax_error_has_location(self):
        with pytest.raises(ParseError) as e:
            parse_polynomial("max(0, x1,, x2)")
        assert "line 1" in str(e.value)

    @pytest.mark.parametrize("text, message, line, col", [
        ("min(0, x1)", "expected 'max'", 1, 1),
        ("max 0, x1)", "expected '('", 1, 5),
        ("max(0, x1", "expected ')'", 1, 10),
        ("max(0, x1) 3", "trailing input after polynomial", 1, 12),
        ("max(0,, x1)", "expected a coefficient or monomial", 1, 7),
        ("max(0, 2*y1)", "expected 'x'", 1, 10),
        ("max(0, x)", "expected an integer", 1, 9),
        # a sign and its digits are one word
        ("max(0, - 3)", "expected an integer", 1, 8),
        # the denominator and the variable index are checked at their end
        ("max(0, 1/0)", "zero denominator", 1, 11),
        ("max(0, x0)", "variable indices start at 1", 1, 10),
        ("max(0,\n 1 + x1,\n 2 + x1)", "duplicate exponent vector (1,)", 3, 2),
        # parts are joined by '+', and a monomial has one variable
        ("max(0, 2 x1)", "expected ')'", 1, 10),
        ("max(0, 2*x1*x2)", "expected ')'", 1, 12),
    ])
    def test_error_message_and_location(self, text, message, line, col):
        with pytest.raises(ParseError) as e:
            parse_polynomial(text)
        assert str(e.value) == "%s at line %d, column %d" % (message, line, col)
        assert (e.value.line, e.value.col) == (line, col)

    @pytest.mark.parametrize("text, message, col", [
        # str.isdigit takes the superscript, and int() then rejects it
        ("max(0, x²)", "expected an integer", 9),
        # int() reads Arabic-Indic digits, which no coefficient may use
        ("max(0, x٣)", "expected an integer", 9),
        ("max(٣, x1)", "expected a coefficient or monomial", 5),
        ("max(0, 1/٣)", "expected an integer", 10),
    ])
    def test_digits_are_ascii(self, text, message, col):
        with pytest.raises(ParseError) as e:
            parse_polynomial(text)
        assert str(e.value) == "%s at line 1, column %d" % (message, col)

    def test_whitespace_between_parts_and_around_operators(self):
        f = parse_polynomial(" max ( 1 / 2 + 3 * x 2 +\tx\n+1 ,\r\n-1 ) \n")
        assert f == parse_polynomial("max(1/2+3*x2+x+1,-1)")
        assert f.terms == (((0, 0), -1), ((1, 3), Fraction(1, 2)))

    def test_negative_exponent_and_coeff(self):
        f = parse_polynomial("max(-1 + -2*x1 + x2, 0)")
        assert (( -2, 1), Fraction(-1)) in f.terms

    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(1, 3)
            exps = set()
            while len(exps) < rng.randint(1, 5):
                exps.add(tuple(rng.randint(-3, 3) for _ in range(n)))
            terms = [(e, Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for e in exps]
            f = TropicalPolynomial(n, terms)
            assert parse_polynomial(polynomial_text(f)).padded(n) == f

    def test_non_integral_exponent_rejected(self):
        # int() would truncate the exponent (1/2, 0) to (0, 0)
        with pytest.raises(ValueError, match=r"Fraction\(1, 2\) at exponent 0, column 0"):
            TropicalPolynomial(2, [((Fraction(1, 2), 0), 0), ((0, 0), 1)])
        f = TropicalPolynomial(2, [((Fraction(2, 2), 0), 0), ((0.0, False), 1)])
        assert f.terms == (((0, 0), 1), ((1, 0), 0))
        assert {type(x) for e, c in f.terms for x in e} == {int}

    def test_padding(self):
        f = parse_polynomial("max(0, x1)").padded(3)
        assert f.n_vars == 3
        assert f.terms == (((0, 0, 0), 0), ((1, 0, 0), 0))


class TestNewton:
    def test_line_polytope(self):
        f = parse_polynomial("max(0, x1, x2)")
        np = newton_polytope(f)
        assert set(np.vertices) == {(0, 0), (1, 0), (0, 1)}

    def test_single_term(self):
        f = parse_polynomial("max(2*x1)")
        np = newton_polytope(f)
        assert np.vertices == ((2,),)
        assert np.affine_dim == 0

    def test_dense_cubic(self):
        terms = [((a, b), 0) for a in range(4) for b in range(4 - a)]
        f = TropicalPolynomial(2, terms)
        np = newton_polytope(f)
        assert set(np.vertices) == {(0, 0), (3, 0), (0, 3)}
        assert len(f.terms) == 10


class TestNormalFan:
    def test_tp2(self):
        np = newton_polytope(parse_polynomial("max(0, x1, x2)"))
        fan = normal_fan(np)
        assert set(fan.rays) == {(-1, 0), (0, -1), (1, 1)}
        assert len(fan.max_cones) == 3
        assert fan.is_complete()

    def test_square_tp1xtp1(self):
        np = QPolyhedron.from_generators([(0, 0), (1, 0), (0, 1), (1, 1)])
        fan = normal_fan(np)
        assert set(fan.rays) == {(-1, 0), (0, -1), (1, 0), (0, 1)}
        assert len(fan.max_cones) == 4

    def test_dilation_invariance(self):
        np1 = QPolyhedron.from_generators([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        np3 = QPolyhedron.from_generators([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
        f1, f3 = normal_fan(np1), normal_fan(np3)
        assert set(f1.rays) == set(f3.rays)

    def test_completeness_by_sampling(self):
        np = newton_polytope(parse_polynomial("max(0, x1, x2, x1 + x2)"))
        fan = normal_fan(np)
        rng = random.Random(4)
        for _ in range(40):
            d = (rng.randint(-7, 7), rng.randint(-7, 7))
            if d == (0, 0):
                continue
            hits = [c for c in fan.max_cones
                    if contains(fan_cone(fan, c), d)]
            assert hits
            relint_hits = [c for c in fan.cones()
                           if c and cone_meets_relint(
                               QPolyhedron.from_generators([(0, 0)], [d]), fan_cone(fan, c))
                           and contains(fan_cone(fan, c), d)]
            # d lies in the relative interior of exactly one cone
            mins = [c for c in relint_hits
                    if not any(o < c for o in relint_hits)]
            assert len(mins) == 1

    def test_non_fulldim_rejected(self):
        np = QPolyhedron.from_generators([(0, 0), (1, 0)])
        with pytest.raises(FanError):
            normal_fan(np)


def _cones_meet_in_faces(dim, rays, max_cones):
    """All-pairs reference: every two cones of the fan meet in their common
    face."""
    cones = {frozenset(s) for c in max_cones for k in range(len(c) + 1)
             for s in combinations(c, k)}
    hull = {c: QPolyhedron.from_generators([(0,) * dim], [rays[i] for i in sorted(c)], (), dim)
            for c in cones}
    for a, b in combinations(cones, 2):
        both = meet(hull[a], hull[b])
        if both is None or geometry_key(both) != geometry_key(hull[a & b]):
            return False
    return True


def _star_subdivide(rays, cones, tau):
    """Star subdivision at the sum of the rays of tau; a unimodular fan stays
    unimodular."""
    k = len(rays)
    new = [c for c in cones if not tau <= c]
    new += [(c - {i}) | {k} for c in cones if tau <= c for i in tau]
    return rays + [tuple(map(sum, zip(*(rays[i] for i in tau))))], new


def _unimodular(rng, dim):
    W = [list(r) for r in IntMatrix.identity(dim).rows]
    for _ in range(3):
        i, j = rng.sample(range(dim), 2)
        q = rng.choice((-1, 1))
        for row in W:
            row[j] += q * row[i]
    return IntMatrix(W)


def _completeness_cases():
    """(dim, rays, maximal cones): the bench fans, the trivial fan, a line in
    the plane (a closed fan of lower dimension), and seeded random fans.  The
    complete ones come from TP^d and (P^1)^d by star subdivisions and a
    unimodular change of coordinates; dropping maximal cones from them gives
    partial ones."""
    tp3 = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)]
    tp3_cones = [frozenset(c) for c in combinations(range(4), 3)]
    cases = [(3, tp3 + [(-1, -1, -1)],
              [frozenset(c) for c in ((0, 1, 3), (0, 2, 3), (1, 2, 3),
                                      (0, 1, 4), (0, 2, 4), (1, 2, 4))]),
             (3, tp3, tp3_cones[1:]),
             (3, [(0, 0, -1)], [frozenset({0})]),
             (2, [], []),
             (2, [(1, 0), (-1, 0)], [frozenset({0}), frozenset({1})])]
    rng = random.Random(17)
    for dim in (2, 3):
        axes = IntMatrix.identity(dim).rows
        simplex = ([tuple(-x for x in e) for e in axes] + [(1,) * dim],
                   [frozenset(c) for c in combinations(range(dim + 1), dim)])
        cube = ([tuple(s * x for x in e) for e in axes for s in (1, -1)],
                [frozenset(2 * i + b for i, b in enumerate(bits))
                 for bits in product((0, 1), repeat=dim)])
        for _ in range(10):
            rays, cones = rng.choice((simplex, cube))
            for _ in range(rng.randint(0, 2)):
                c = sorted(rng.choice(cones))
                rays, cones = _star_subdivide(
                    rays, cones, frozenset(rng.sample(c, rng.randint(2, dim))))
            G = _unimodular(rng, dim)
            rays = [G.apply(r) for r in rays]
            cases.append((dim, rays, cones))
            drop = rng.sample(cones, rng.randint(1, len(cones) - 1))
            cases.append((dim, rays, [c for c in cones if c not in drop]))
    return cases


def test_is_complete_matches_covering_reference():
    """The combinatorial `is_complete` agrees with peeling R^dim by the
    maximal cones."""
    verdicts = []
    for dim, rays, cones in _completeness_cases():
        fan = FanSpec(dim, rays, cones)
        space = QPolyhedron.from_generators([(0,) * dim], [], IntMatrix.identity(dim).rows, dim)
        want = bool(fan.max_cones) and cone_covered_by(
            space, [fan_cone(fan, c) for c in fan.max_cones])
        assert fan.is_complete() == want, (dim, rays, cones)
        verdicts.append(want)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 20


def test_zero_dimensional_fan_is_complete():
    assert FanSpec(0, [], []).is_complete()


class TestLoadFan:
    def test_blowup_fan(self):
        # projective 3-space fan with the corner cone star-subdivided
        text = """dim 3
ray 0: -1 0 0
ray 1: 0 -1 0
ray 2: 0 0 -1
ray 3: 1 1 1
ray 4: -1 -1 -1
cone: 0 1 3
cone: 0 2 3
cone: 1 2 3
cone: 0 1 4
cone: 0 2 4
cone: 1 2 4
"""
        fan = load_fan(text)
        assert len(fan.rays) == 5
        assert len(fan.max_cones) == 6
        assert fan.is_complete()

    def test_partial_fan(self):
        fan = load_fan("dim 2\nray 0: 1 0\nray 1: 0 1\ncone: 0 1\n")
        assert not fan.is_complete()
        assert len(fan.cones()) == 4

    def test_unimodularity_violation(self):
        with pytest.raises(FanError) as e:
            load_fan("dim 2\nray 0: 1 0\nray 1: 1 2\ncone: 0 1\n")
        assert "unimodular" in str(e.value)

    def test_make_validates(self):
        with pytest.raises(FanError) as e:
            FanSpec(2, [(1, 0), (1, 2)], [(0, 1)])
        assert "unimodular" in str(e.value) and "(1, 2)" in str(e.value)

    def test_direct_construction_rejects_overlapping_cones(self):
        """Two unimodular cones that overlap in a 2-cone are not a fan."""
        with pytest.raises(FanError, match=r"^cones \[0, 1\] and \[1, 2\] do not "
                                           r"intersect in a common face$"):
            FanSpec(2, ((1, 0), (0, 1), (1, 1)), (frozenset({0, 1}), frozenset({1, 2})))

    def test_make_rejects_negative_ray_index(self):
        # Python would read index -1 as the last ray
        with pytest.raises(FanError, match=r"cone \[-1, 0\] names ray -1"):
            FanSpec(2, [(1, 0), (0, 1)], [{0, -1}])

    def test_make_rejects_ray_index_past_the_end(self):
        with pytest.raises(FanError, match=r"cone \[0, 5\] names ray 5, but the fan has 2 rays"):
            FanSpec(2, [(1, 0), (0, 1)], [{0, 5}])

    def test_make_rejects_ray_of_wrong_length(self):
        with pytest.raises(FanError, match=r"ray 1 = \(0, 1\) has 2 coordinates, not 3"):
            FanSpec(3, [(1, 0, 0), (0, 1)], [{0, 1}])

    def test_make_rejects_zero_ray(self):
        with pytest.raises(FanError, match="ray 1 is zero"):
            FanSpec(2, [(1, 0), (0, 0)], [])

    def test_make_names_duplicate_rays(self):
        with pytest.raises(FanError, match=r"rays 0 and 2 are both \(1, 0\)"):
            FanSpec(2, [(1, 0), (0, 1), (1, 0)], [])

    def test_make_rejects_non_integral_ray(self):
        # int() would truncate the ray (1/2, 1) to (0, 1)
        with pytest.raises(ValueError, match=r"Fraction\(1, 2\) at ray 0, column 0"):
            FanSpec(2, [(Fraction(1, 2), 1), (1, 0)], [(0, 1)])
        fan = FanSpec(2, [(Fraction(2, 2), 0), (0, 1.0)], [(0, 1)])
        assert fan.rays == ((1, 0), (0, 1))
        assert {type(x) for r in fan.rays for x in r} == {int}

    @pytest.mark.parametrize("rays, cones, where", [
        ([(1, 0), (0, 1)], [[0, "a"]], r"^non-integral entry 'a' at cone 0, column 1$"),
        ([(1, 0), (0, 1)], [[0, 1], [1, 1.5]], r"^non-integral entry 1\.5 at cone 1, column 1$"),
        ([(1, 0.5), (0, 1)], [[0, 1]], r"^non-integral entry 0\.5 at ray 0, column 1$"),
    ], ids=("string-index", "fractional-index", "fractional-ray"))
    def test_every_bad_field_raises_fan_error(self, rays, cones, where):
        """Ray indices are read by the int rule before any sort compares
        them, so a string index raises no TypeError from the sort; a
        non-integral ray raises FanError with the int rule's message."""
        with pytest.raises(FanError, match=where):
            FanSpec(2, rays, cones)

    def test_integral_ray_index_read_as_int(self):
        """An index equal to an int is read as that int, as ray
        coordinates are, and never reaches `self.rays[i]` as a float."""
        fan = FanSpec(2, [(1, 0), (0, 1)], [[0, 1.0]])
        assert fan == FanSpec(2, [(1, 0), (0, 1)], [[0, 1]])
        assert {type(i) for c in fan.max_cones for i in c} == {int}

    def test_non_face_intersection(self):
        # two 2-cones overlapping in dimension 2
        with pytest.raises(FanError):
            load_fan("dim 2\nray 0: 1 0\nray 1: 0 1\nray 2: 1 1\nray 3: -1 1\n"
                     "cone: 0 1\ncone: 2 3\n")

    def test_one_double_description_per_pair_of_cones(self, monkeypatch):
        """Each pair of maximal cones is met by one `generators_from_hrep` on
        both cones' rows, one `dd_cone` call, and the cones themselves take
        none (`QPolyhedron.cone`): 15 calls on the blow-up fan of TP^3 (6
        cones) and 3 on TP^3 minus a cone (3 cones)."""
        real, calls = polyhedra.dd_cone, []

        def counted(constraints, dim):
            calls.append(dim)
            return real(constraints, dim)

        monkeypatch.setattr(polyhedra, "dd_cone", counted)
        rays = "ray 0: -1 0 0\nray 1: 0 -1 0\nray 2: 0 0 -1\nray 3: 1 1 1\n"
        for text, pairs in ((rays + "ray 4: -1 -1 -1\ncone: 0 1 3\ncone: 0 2 3\n"
                             "cone: 1 2 3\ncone: 0 1 4\ncone: 0 2 4\ncone: 1 2 4\n", 15),
                            (rays + "cone: 0 1 3\ncone: 0 2 3\ncone: 1 2 3\n", 3)):
            calls.clear()
            load_fan("dim 3\n" + text)
            assert len(calls) == pairs

    def test_maximal_pairs_match_all_pairs_reference(self):
        """The constructor meets only maximal cones pairwise; on simplicial
        fans that agrees with meeting every pair of cones."""
        cases = [(3, [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1), (-1, -1, -1)],
                  [(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)]),
                 (3, [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)],
                  [(0, 1, 3), (0, 2, 3), (1, 2, 3)]),
                 (3, [(0, 0, -1)], [(0,)])]
        for poly in ("max(0, 4*x1, 4*x2)", "max(0, 3*x1, 3*x2, 3*x3)",
                     "max(0, x1, x2, x1 + x2)"):
            fan = normal_fan(newton_polytope(parse_polynomial(poly)))
            cases.append((fan.dim, list(fan.rays), [tuple(c) for c in fan.max_cones]))
        rng = random.Random(11)
        for dim, width, count in ((2, 2, 60), (3, 1, 30)):
            vecs = [v for v in product(range(-width, width + 1), repeat=dim)
                    if any(v) and gcd(*v) == 1]
            for _ in range(count):
                rays = rng.sample(vecs, dim + 2)
                unimodular = [c for c in combinations(range(dim + 2), dim) if abs(det(
                    IntMatrix.from_columns([rays[i] for i in c], dim))) == 1]
                if len(unimodular) >= 2:
                    k = min(len(unimodular), rng.randint(2, 3))
                    cases.append((dim, rays, rng.sample(unimodular, k)))
        verdicts = []
        for dim, rays, cones in cases:
            text = "dim %d\n%s%s" % (
                dim, "".join("ray %d: %s\n" % (i, " ".join(map(str, r)))
                             for i, r in enumerate(rays)),
                "".join("cone: %s\n" % " ".join(map(str, c)) for c in cones))
            try:
                load_fan(text)
                ok = True
            except FanError as err:
                assert "common face" in str(err)
                ok = False
            assert ok == _cones_meet_in_faces(dim, rays, cones), text
            verdicts.append(ok)
        assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20

    def test_round_trip(self):
        text = "dim 2\nray 0: -1 0\nray 1: 0 -1\nray 2: 1 1\ncone: 0 1\ncone: 0 2\ncone: 1 2\n"
        fan = load_fan(text)
        assert load_fan(fan_text(fan)) == fan

    @pytest.mark.parametrize("text, line", [
        # a second dim above and below the one the ray was read in
        ("dim 2\nray 0: 1 0\ndim 3\ncone: 0\n", 3),
        ("dim 2\nray 0: 1 0\ndim 1\ncone: 0\n", 3),
    ])
    def test_second_dim_line_rejected(self, text, line):
        with pytest.raises(ParseError, match="second dim line") as e:
            load_fan(text)
        assert e.value.line == line

    def test_direct_construction_rejects_negative_dim(self):
        """The constructor rejects what `load_fan` rejects, in its words."""
        with pytest.raises(FanError, match=r"^negative dimension -1$"):
            FanSpec(-1, (), ())
        with pytest.raises(ParseError, match=r"^negative dimension -1 at line 1"):
            load_fan("dim -1\n")

    def test_negative_dim_rejected(self):
        with pytest.raises(ParseError, match="negative dimension") as e:
            load_fan("# comment\ndim -1\n")
        assert e.value.line == 2

    def test_dim_extra_tokens_rejected(self):
        with pytest.raises(ParseError, match="malformed dim line") as e:
            load_fan("dim 1 2\n")
        assert e.value.line == 1

    @pytest.mark.parametrize("text, line, message", [
        # keywords are whole words, not prefixes
        ("dim 2\nrays 0: 1 0\n", 2, "unrecognized line"),
        ("dimension 2\n", 1, "unrecognized line"),
        ("dim 2\nray 0: 1 0\ncones: 0\n", 3, "unrecognized line"),
        # a ray line has one index
        ("dim 2\nray 0 7: 1 0\n", 2, "malformed ray line"),
        ("dim 2\nray: 1 0\n", 2, "malformed ray line"),
        # a cone line needs its colon, and names each ray once
        ("dim 2\nray 0: 1 0\nray 1: 0 1\ncone 0 1\n", 4, "malformed cone line"),
        ("dim 2\nray 0: 1 0\nray 1: 0 1\ncone: 0 0 1\n", 4, "cone lists ray 0 twice"),
        # a ray needs the dim line above it, and dim coordinates
        ("dim 2\nray 0: 1 0 0\n", 2, "ray has 3 coordinates, expected dim 2"),
        ("ray 0: 1 0\ndim 2\n", 1, "ray line before the dim line"),
        # integers are ASCII digits: int() alone takes digit-group
        # underscores and digits of other scripts
        ("dim 2\nray 0: 1_0 1\n", 2, "malformed ray line"),
        ("dim 2\nray ٠: 1 0\n", 2, "malformed ray line"),
        ("dim ٢\n", 1, "malformed dim line"),
        ("dim 1\nray 0: 1\ncone: ٠\n", 3, "malformed cone line"),
    ])
    def test_malformed_line_rejected(self, text, line, message):
        with pytest.raises(ParseError, match=message) as e:
            load_fan(text)
        assert e.value.line == line

    @pytest.mark.parametrize("text, message, line, col", [
        # a .fan error names its line's first word
        ("dim 2\n  rays 0: 1 0\n", "unrecognized line 'rays 0: 1 0'", 2, 3),
        ("dim 2\n\tray 0 7: 1 0  # two indices\n", "malformed ray line", 2, 2),
        ("dim 1\nray 0: 1\n cone 0\n", "malformed cone line: expected 'cone: i j ...'", 3, 2),
        ("dim 2\nray 0: 1 0\ncone: 0 1\n", "cone refers to an unknown ray", 3, 1),
        ("dim 2\nray 1: 1 0\n", "ray indices must be consecutive from 0", 2, 1),
        ("# no fan\n\n   dim -2\n", "negative dimension -2", 3, 4),
        ("\n# no fan\n", "missing dim line", 1, 1),
        # CR is whitespace, as in .trop, and ends no line
        ("dim 2\rray 0: 1 0\n", "malformed dim line: expected 'dim D'", 1, 1),
        # "dim D" takes no colon.  The line-splitting reader took these two,
        # where the colon is glued to "dim" and the dimension follows
        # whitespace, as "dim 2" and "dim 0"
        ("dim: 2\n", "malformed dim line: expected 'dim D'", 1, 1),
        ("# c\n dim:) 0\n", "malformed dim line: expected 'dim D'", 2, 2),
    ])
    def test_error_message_and_location(self, text, message, line, col):
        with pytest.raises(ParseError) as e:
            load_fan(text)
        assert str(e.value) == "%s at line %d, column %d" % (message, line, col)
        assert (e.value.line, e.value.col) == (line, col)

    @pytest.mark.parametrize("space", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\xa0", "\u2003", "\u2028", "\u2029"])
    def test_whitespace_is_space_tab_and_cr(self, space):
        """Lines end at LF alone, and space, tab and CR are the only
        whitespace within one, as in .trop: str.split and str.splitlines
        would also take these characters."""
        for text, line, col in (("dim%s2\n" % space, 1, 1),
                                ("dim 2%sray 0: 1 0\nbad\n" % space, 1, 1),
                                ("dim 2\nray 0:%s1 0\n" % space, 2, 1),
                                ("dim 1\nray 0: 1\ncone: 0%s\n" % space, 3, 1),
                                ("%sdim 1\n" % space, 1, 1)):
            with pytest.raises(ParseError) as e:
                load_fan(text)
            assert (e.value.line, e.value.col) == (line, col), text
        assert load_fan(" dim\t2 \r\n\tray 0 :1\t0\r\ncone\t:  0  # c\r\n") == \
            load_fan("dim 2\nray 0: 1 0\ncone: 0\n")

    def test_colon_is_optional_with_nothing_after_it(self):
        """A ray line with no colon has no coordinates, and a bare "cone"
        lists the apex, as with the colon and nothing after it."""
        assert load_fan("dim 2\nray 0: 1 0\ncone\n") == load_fan("dim 2\nray 0: 1 0\ncone:\n")
        with pytest.raises(ParseError, match="ray has 0 coordinates, expected dim 2"):
            load_fan("dim 2\nray 0 # : 1 0\n")
        with pytest.raises(FanError, match="ray 0 is zero"):
            load_fan("dim 0\nray 0\n")

    def test_trivial_fan(self):
        fan = load_fan("dim 3\n")
        assert fan.is_trivial()
        assert fan.cones() == [frozenset()]


# ---------------------------------------------------------------------------
# fuzzing: every document round-trips or raises a located ParseError

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

polynomials = st.integers(1, 3).flatmap(lambda n: st.dictionaries(
    st.tuples(*[st.integers(-3, 3)] * n),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    min_size=1, max_size=6).map(lambda terms: TropicalPolynomial(n, terms.items())))

FAN_TEXTS = [
    "dim 0\n",
    "dim 3\n",
    "dim 2\nray 0: -1 0\nray 1: 0 -1\nray 2: 1 1\ncone: 0 1\ncone: 0 2\ncone: 1 2\n",
    "dim 2\nray 0: 1 0\nray 1: 0 1\nray 2: -1 0\nray 3: 0 -1\n"
    "cone: 0 1\ncone: 1 2\ncone: 2 3\ncone: 0 3\n",
    "dim 3\nray 0: -1 0 0\nray 1: 0 -1 0\nray 2: 0 0 -1\nray 3: 1 1 1\nray 4: -1 -1 -1\n"
    "cone: 0 1 3\ncone: 0 2 3\ncone: 1 2 3\ncone: 0 1 4\ncone: 0 2 4\ncone: 1 2 4\n",
    "dim 3\nray 0: 0 0 -1\ncone: 0\n",
]


@st.composite
def fans(draw):
    """A fan of FAN_TEXTS moved by a unimodular map, a product of
    elementary row operations, with its rays shuffled."""
    fan = load_fan(draw(st.sampled_from(FAN_TEXTS)))
    rays = [list(r) for r in fan.rays]
    if fan.dim >= 2:
        pairs = st.tuples(st.integers(0, fan.dim - 1), st.integers(0, fan.dim - 1),
                          st.integers(-2, 2))
        for i, j, k in draw(st.lists(pairs, max_size=4)):
            if i != j:
                for r in rays:
                    r[i] += k * r[j]
    order = draw(st.permutations(range(len(rays))))
    where = {old: new for new, old in enumerate(order)}
    return FanSpec(fan.dim, [rays[i] for i in order],
                   [frozenset(where[i] for i in c) for c in fan.max_cones])


def mutated(draw, text):
    """The text with one character deleted, inserted or replaced."""
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from("max(),+-*/:#x0123456789 \n"))
    kind = draw(st.sampled_from(("delete", "insert", "replace")))
    if kind == "insert":
        return text[:at] + char + text[at:]
    return text[:at] + (char if kind == "replace" else "") + text[at + 1:]


@FUZZ
@given(polynomials, st.data())
def test_polynomial_text_round_trips_or_fails_located(f, data):
    text = polynomial_text(f)
    assert parse_polynomial(text).padded(f.n_vars) == f
    bad = mutated(data.draw, text)
    try:
        g = parse_polynomial(bad)
    except ParseError as e:
        assert 1 <= e.line <= bad.count("\n") + 1 and e.col >= 1, (bad, e)
    else:
        assert parse_polynomial(polynomial_text(g)).padded(g.n_vars) == g, bad


# every coefficient form the constructor takes: ints, Fractions, their
# strings, and the floats that are exactly their repr
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=6).flatmap(
    lambda q: st.sampled_from([q, str(q)] + ([int(q)] if q.denominator == 1 else [])
                              + ([float(q)] if q.denominator in (1, 2, 4) else [])))


@FUZZ
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
    st.tuples(*[st.integers(-3, 3)] * n), coefficients, min_size=1, max_size=6))),
    st.data())
def test_every_accepted_polynomial_round_trips(case, data):
    """Whatever the constructor accepts, in any of the forms it reads,
    `polynomial_text` writes as a text that parses back to the same
    polynomial (embedded in its own variable count, which the text names
    only up to its largest used index)."""
    n, terms = case
    given_terms = [(tuple(data.draw(st.sampled_from((x, Fraction(x), float(x)))) for x in e), c)
                   for e, c in terms.items()]
    f = TropicalPolynomial(n, given_terms)
    assert f.n_vars == n and len(f.terms) == len(terms)
    assert parse_polynomial(polynomial_text(f)).padded(n) == f


@FUZZ
@given(fans(), st.data())
def test_fan_text_round_trips_or_fails_located(fan, data):
    """A mutated document either loads and round-trips, names the line of
    its syntax error, or is well formed and fails validation (FanError)."""
    text = fan_text(fan)
    assert load_fan(text) == fan
    bad = mutated(data.draw, text)
    try:
        g = load_fan(bad)
    except ParseError as e:
        assert 1 <= e.line <= max(1, len(bad.splitlines())) and e.col >= 1, (bad, e)
    except FanError:
        pass
    else:
        assert load_fan(fan_text(g)) == g, bad


@pytest.mark.parametrize("text", ["", "\n", "# no fan here\n"])
def test_missing_dim_line_names_line_one(text):
    with pytest.raises(ParseError, match="missing dim line") as e:
        load_fan(text)
    assert e.value.line == 1


def test_listed_apex_cone_round_trips():
    """A 'cone:' line with no rays lists the apex, which every fan has: the
    fan equals the one without that line, so it round-trips."""
    fan = load_fan("dim 3\nray 0: 0 0 -1\ncone:\n")
    assert fan == load_fan("dim 3\nray 0: 0 0 -1\n") == load_fan(fan_text(fan))
    assert fan.is_trivial() and fan.cones() == [frozenset()]
