from fractions import Fraction

import pytest

from trophom.exactla import IntMatrix
from trophom.polyhedra import QPolyhedron, convex_hull
from trophom.tropio import FanError, FanSpec, load_fan, newton_polytope, normal_fan, parse_polynomial
from trophom.toric import ToricVariety


def tp2():
    return ToricVariety(normal_fan(newton_polytope(parse_polynomial("max(0, x1, x2)"))))


def cone_id(Y, rays):
    idx = frozenset(Y.fan.rays.index(r) for r in rays)
    return Y.cone_index[idx]


class TestStrata:
    def test_counts_and_dims(self):
        Y = tp2()
        assert len(Y.cones) == 7  # apex, 3 rays, 3 corners
        assert Y.stratum_dim(Y.apex) == 2
        dims = sorted(Y.stratum_dim(c) for c in range(len(Y.cones)))
        assert dims == [0, 0, 0, 1, 1, 1, 2]

    def test_sedentarity(self):
        Y = tp2()
        assert Y.cone_dim(Y.apex) == 0
        corner = cone_id(Y, [(-1, 0), (0, -1)])
        assert Y.cone_dim(corner) == 2
        Y3 = ToricVariety(normal_fan(newton_polytope(
            parse_polynomial("max(0, x1, x2, x3)"))))
        ray = next(c for c in range(len(Y3.cones)) if Y3.cone_dim(c) == 1)
        assert Y3.cone_dim(ray) == 1

    def test_projection_section_identities(self):
        Y = tp2()
        for cid, st in enumerate(Y.strata):
            assert st.projection * st.section == IntMatrix.identity(Y.stratum_dim(cid))
            for i in Y.cones[cid]:
                assert all(x == 0 for x in st.projection.apply(Y.fan.rays[i]))

    def test_projection_identity_on_equal_cones(self):
        Y = tp2()
        for c in range(len(Y.cones)):
            assert Y.projection(c, c) == IntMatrix.identity(Y.stratum_dim(c))

    def test_projection_needs_a_face_pair(self):
        Y = tp2()
        assert Y.cones[1] == {0} and Y.cones[2] == {1}
        with pytest.raises(ValueError, match="projection needs a face pair of cones"):
            Y.projection(1, 2)

    def test_unvalidated_non_unimodular_cone_rejected(self):
        """A fan built directly whose cone is not unimodular, so that its
        stratum would have no lattice section: the constructor rejects it,
        so no toric variety is built on it."""
        with pytest.raises(FanError, match=r"cone \[0, 1\] with rays \[\(1, 0\), \(1, 2\)\] "
                                           r"is not unimodular simplicial"):
            FanSpec(2, ((1, 0), (1, 2)), (frozenset({0, 1}),))

    def test_halfspace_fan_drops_coordinate(self):
        Y = ToricVariety(load_fan("dim 2\nray 0: -1 0\ncone: 0\n"))
        ray = 1  # the only 1-dim cone
        P = Y.projection(Y.apex, ray)
        assert P.nrows == 1 and P.ncols == 2
        assert P.apply((-1, 0)) == (0,)

    def test_tp2_projection_kills_ray(self):
        Y = tp2()
        rho = cone_id(Y, [(1, 1)])
        P = Y.projection(Y.apex, rho)
        assert P.apply((1, 1)) == (0,)
        assert P.apply((1, 0)) == tuple(-x for x in P.apply((0, 1)))

    def test_functoriality(self):
        for text in ["max(0, x1, x2)", "max(0, x1, x2, x3)"]:
            Y = ToricVariety(normal_fan(newton_polytope(parse_polynomial(text))))
            for a in range(len(Y.cones)):
                for b in Y.cofaces(a):
                    for c in Y.cofaces(b):
                        lhs = Y.projection(a, c)
                        rhs = Y.projection(b, c) * Y.projection(a, b)
                        assert lhs == rhs


class TestCompactify:
    def test_bounded_stays_home(self):
        Y = tp2()
        P = convex_hull([(0, 0), (1, 0), (0, 1)])
        pieces = Y.compactify(P)
        assert set(pieces) == {Y.apex}

    def test_ray_hits_boundary_point(self):
        Y = tp2()
        P = QPolyhedron.from_generators([(0, 0)], rays=[(1, 1)])
        pieces = Y.compactify(P)
        rho = cone_id(Y, [(1, 1)])
        assert set(pieces) == {Y.apex, rho}
        piece = pieces[rho]
        assert piece.affine_dim == 0
        assert piece.vertices == ((Fraction(0),),)

    def test_strip_in_half_toric(self):
        # R x [0,1] inside T x R: boundary edge is {-inf} x [0,1]
        Y = ToricVariety(load_fan("dim 2\nray 0: -1 0\ncone: 0\n"))
        P = QPolyhedron.from_hrep(
            [((0, 1), Fraction(1)), ((0, -1), Fraction(0))], [], 2)
        pieces = Y.compactify(P)
        ray = next(c for c in range(len(Y.cones)) if Y.cone_dim(c) == 1)
        assert set(pieces) == {Y.apex, ray}
        edge = pieces[ray]
        assert edge.is_bounded()
        assert edge.affine_dim == 1

    def test_reached_iff_recession_meets_relint(self):
        Y = tp2()
        # line in direction (1,-1): exits through the two corners its two
        # ends point into, and meets no ray stratum
        P = QPolyhedron.from_generators([(0, 0)], lins=[(1, -1)])
        pieces = Y.compactify(P)
        reached = {frozenset(Y.fan.rays[i] for i in Y.cones[c]) for c in pieces}
        assert reached == {
            frozenset(),
            frozenset({(-1, 0), (1, 1)}),
            frozenset({(0, -1), (1, 1)}),
        }

    def test_closure_compactness(self):
        Yhalf = ToricVariety(load_fan("dim 2\nray 0: -1 0\ncone: 0\n"))
        ray_up = QPolyhedron.from_generators([(0, 0)], rays=[(0, 1)])
        ray_left = QPolyhedron.from_generators([(0, 0)], rays=[(-1, 0)])
        for P, want in ((ray_up, False), (ray_left, True)):
            reached = Yhalf.reached_cones(P, Yhalf.apex)
            assert Yhalf.closure_is_compact(P, Yhalf.apex, reached) == want
        box = convex_hull([(0, 0), (1, 1)])
        assert Yhalf.closure_is_compact(box, Yhalf.apex, [Yhalf.apex])
        Y = tp2()
        assert Y.compact
        assert Y.closure_is_compact(ray_up, Y.apex, Y.reached_cones(ray_up, Y.apex))
