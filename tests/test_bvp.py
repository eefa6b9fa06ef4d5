"""Quadrature, point sets and preset tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperelast.bvp import (
    BoxDomain,
    PRESET_NAMES,
    TractionPatch,
    affine_problem,
    build_point_sets,
    grid_points,
    preset,
    simpson_weights_1d,
)
from hyperelast.errors import EvenCount, UnknownPreset
from hyperelast.materials import eval_stress
from hyperelast.network import DirichletFace


class TestSimpsonWeights:
    def test_single_panel(self):
        assert_allclose(simpson_weights_1d(3, 0.5), [1 / 6, 4 / 6, 1 / 6], rtol=1e-15)

    def test_cubic_exact(self):
        x = np.linspace(0.0, 1.0, 3)
        w = simpson_weights_1d(3, 0.5)
        assert abs(np.sum(w * x**3) - 0.25) <= 1e-15

    def test_quartic_error_and_convergence(self):
        # not exact for x^4: value 0.2083333... (error 1/120), and the
        # error contracts 16x when the spacing halves
        x3 = np.linspace(0.0, 1.0, 3)
        s3 = np.sum(simpson_weights_1d(3, 0.5) * x3**4)
        assert_allclose(s3, 0.2083333333333333, rtol=1e-12)
        x5 = np.linspace(0.0, 1.0, 5)
        s5 = np.sum(simpson_weights_1d(5, 0.25) * x5**4)
        assert_allclose((s3 - 0.2) / (s5 - 0.2), 16.0, rtol=1e-10)

    def test_even_count_rejected(self):
        with pytest.raises(EvenCount):
            simpson_weights_1d(4, 0.1)
        with pytest.raises(EvenCount):
            simpson_weights_1d(1, 0.1)


class TestPointSets:
    def test_unit_cube_counts_and_volume(self):
        domain = BoxDomain(counts=(3, 3, 3))
        ps = build_point_sets(domain)
        assert ps.points.shape == (27, 3)
        assert abs(ps.vol_weights.sum() - 1.0) <= 1e-12

    def test_beam_volume(self):
        domain = BoxDomain(lengths=(4.0, 1.0, 1.0), counts=(9, 5, 5))
        ps = build_point_sets(domain)
        assert abs(ps.vol_weights.sum() - 4.0) <= 1e-12

    def test_interior_count(self):
        ps = build_point_sets(BoxDomain(counts=(5, 5, 5)))
        assert ps.n_interior == 27

    def test_interior_and_boundary_partition_points(self):
        domain = BoxDomain(lengths=(2.0, 1.0, 3.0), counts=(5, 3, 7))
        ps = build_point_sets(domain)
        grid, _ = grid_points(domain.lengths, domain.counts)
        rows = np.lexsort(ps.points.T[::-1])  # the rows in grid order
        assert np.array_equal(ps.points[rows], grid)
        X = ps.points[ps.n_interior:]
        hi = np.asarray(domain.lengths)
        assert np.all(np.any((X == 0.0) | (X == hi), axis=1))

    def test_interior_clear_of_faces(self):
        domain = BoxDomain(lengths=(2.0, 1.0, 1.0), counts=(5, 5, 5))
        ps = build_point_sets(domain)
        X = ps.points[:ps.n_interior]
        _, spacing = grid_points(domain.lengths, domain.counts)
        for k in range(3):
            gap = np.minimum(X[:, k], domain.lengths[k] - X[:, k])
            assert np.all(gap >= spacing[k] - 1e-12)

    def test_rows_are_the_grid_interior_first(self):
        # rows [:n_interior] are the strict-interior nodes and the rest the
        # surface nodes, each in grid order, and every per-row array is the
        # grid-order one under that permutation
        problem = preset("nh_localized_traction", grid=(7, 5, 9))
        domain, ps = problem.domain, problem.point_sets()
        grid, spacings = grid_points(domain.lengths, domain.counts)
        interior = np.zeros(domain.counts, dtype=bool)
        interior[1:-1, 1:-1, 1:-1] = True
        interior = interior.ravel()
        order = np.concatenate([np.flatnonzero(interior), np.flatnonzero(~interior)])
        assert np.array_equal(np.sort(order), np.arange(grid.shape[0]))
        assert ps.n_interior == interior.sum() == 5 * 3 * 7
        assert np.array_equal(ps.points, grid[order])
        hi = np.asarray(domain.lengths)
        on_surface = np.any((ps.points == 0.0) | (ps.points == hi), axis=1)
        assert not np.any(on_surface[:ps.n_interior]) and np.all(on_surface[ps.n_interior:])

        # the grid-order layout, built face by face on grid indices
        w1d = [simpson_weights_1d(n, h) for n, h in zip(domain.counts, spacings)]
        vol_w = np.einsum("i,j,k->ijk", *w1d).ravel()
        flat = np.arange(grid.shape[0]).reshape(domain.counts)
        n, n_faces = grid.shape[0], ps.normals.shape[0]
        tbar, on_face, load = np.zeros((n, n_faces, 3)), np.zeros((n, n_faces)), np.zeros((n, 3))
        for f, normal in enumerate(ps.normals):
            (axis,) = np.flatnonzero(normal)
            side = "hi" if normal[axis] > 0 else "lo"
            sl = [slice(None)] * 3
            sl[axis] = -1 if side == "hi" else 0
            idx = flat[tuple(sl)].ravel()
            t, assigned = np.zeros((idx.size, 3)), np.zeros(idx.size, dtype=bool)
            for p in problem.patches:
                if (p.axis, p.side) == (axis, side):
                    covered = p.covers(grid[idx]) & ~assigned
                    t[covered] = p.traction
                    assigned |= covered
            a, b = (k for k in range(3) if k != axis)
            tbar[idx, f] = t
            on_face[idx, f] = 1.0
            load[idx] += t * np.outer(w1d[a], w1d[b]).ravel()[:, None]
        assert np.array_equal(ps.vol_weights, vol_w[order])
        assert np.array_equal(ps.tbar, tbar[order])
        assert np.array_equal(ps.traction_weights, on_face[order] / on_face.sum())
        assert np.array_equal(ps.interior_weights, interior[order] / interior.sum())
        assert np.array_equal(ps.row_weights, np.full(n, 1.0 / n))
        assert np.array_equal(ps.load, load[order])

    def test_surface_weights_sum_to_area(self):
        # a unit traction on one face loads the grid with the face's area
        domain = BoxDomain(lengths=(4.0, 1.0, 2.0), counts=(9, 5, 7))
        for axis in range(3):
            for side in ("lo", "hi"):
                patch = TractionPatch(axis=axis, side=side, traction=(1.0, 0.0, 0.0))
                ps = build_point_sets(domain, [patch])
                area = np.prod(np.delete(domain.lengths, axis))
                assert abs(ps.load[:, 0].sum() - area) <= 1e-12
                assert not np.any(ps.load[:, 1:])

    def test_traction_points_on_their_face(self):
        problem = preset("nh_cantilever_traction", grid=(5, 5, 5))
        ps = problem.point_sets()
        d = problem.domain
        assert ps.normals.shape == (5, 3)
        # 25 nodes on each of the five loaded faces, edge nodes once per face
        w = 1.0 / (5 * 25)
        for normal, weights in zip(ps.normals, ps.traction_weights.T):
            (axis,) = np.flatnonzero(normal)
            assert abs(normal[axis]) == 1.0
            value = d.lengths[axis] if normal[axis] > 0 else 0.0
            assert np.array_equal(weights == w, ps.points[:, axis] == value)
            assert np.all((weights == 0.0) | (weights == w))

    @pytest.mark.parametrize("name, grid", [
        ("nh_cantilever_traction", (9, 5, 3)),
        ("nh_localized_traction", (11, 11, 11)),
        ("nh_uniaxial_traction", (5, 7, 3)),
        ("nh_simple_shear", (5, 5, 5)),
    ])
    def test_weight_families(self, name, grid):
        # each family's weights sum to one (the volume weights to the box
        # volume), are uniform over the family and zero off it
        problem = preset(name, grid=grid)
        ps = problem.point_sets()
        n, n_in = ps.n_points, ps.n_interior
        assert_allclose(ps.vol_weights.sum(), np.prod(problem.domain.lengths), rtol=1e-13)
        assert np.all(ps.vol_weights > 0.0)
        assert np.all(ps.row_weights == 1.0 / n)
        assert np.all(ps.interior_weights[:n_in] == 1.0 / n_in)
        assert np.all(ps.interior_weights[n_in:] == 0.0)
        hi = np.asarray(problem.domain.lengths)
        faces = np.zeros((n, len(ps.normals)), dtype=bool)
        for f, normal in enumerate(ps.normals):
            (axis,) = np.flatnonzero(normal)
            faces[:, f] = ps.points[:, axis] == (hi[axis] if normal[axis] > 0 else 0.0)
        w = ps.traction_weights
        assert w.shape == (n, len(ps.normals))
        assert np.all(w[faces] == 1.0 / max(faces.sum(), 1)) and np.all(w[~faces] == 0.0)
        assert not np.any(ps.tbar[~faces]) and not np.any(ps.load[~faces.any(axis=1)])
        assert_allclose(ps.row_weights.sum(), 1.0, rtol=1e-13)
        assert_allclose(ps.interior_weights.sum(), 1.0, rtol=1e-13)
        assert_allclose(w.sum(), 1.0 if len(ps.normals) else 0.0, rtol=1e-13)

    def test_even_grid_rejected(self):
        with pytest.raises(EvenCount):
            BoxDomain(counts=(4, 5, 5))


class TestFaceInputs:
    @pytest.mark.parametrize("kwargs", [
        {"axis": 3, "side": "lo"},
        {"axis": -1, "side": "hi"},
        {"axis": 0, "side": "up"},
        {"axis": 0, "side": "lo", "components": (0, 3)},
    ])
    def test_dirichlet_face_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DirichletFace(**kwargs)

    @pytest.mark.parametrize("axis, side", [(3, "hi"), (-1, "lo"), (0, "up")])
    def test_traction_patch_rejected(self, axis, side):
        with pytest.raises(ValueError):
            TractionPatch(axis=axis, side=side, traction=(1.0, 0.0, 0.0))


class TestIntegrateVolume:
    def test_constant(self):
        ps = build_point_sets(BoxDomain(counts=(3, 3, 3)))
        assert abs(float(np.sum(np.ones(27) * ps.vol_weights)) - 1.0) <= 1e-15

    def test_separable_cubic(self):
        ps = build_point_sets(BoxDomain(counts=(3, 3, 3)))
        f = ps.points[:, 0] * ps.points[:, 1] * ps.points[:, 2]
        assert abs(float(np.sum(f * ps.vol_weights)) - 0.125) <= 1e-15

    def test_sine(self):
        ps = build_point_sets(BoxDomain(counts=(9, 3, 3)))
        f = np.sin(np.pi * ps.points[:, 0])
        assert abs(float(np.sum(f * ps.vol_weights)) - 2.0 / np.pi) <= 1e-4

    def test_monomials_exact_through_cubics(self):
        # per-axis degree <= 3 on the 4 x 1 x 1 beam box
        domain = BoxDomain(lengths=(4.0, 1.0, 1.0), counts=(9, 5, 5))
        ps = build_point_sets(domain)
        for p in range(4):
            for q in range(4):
                for r in range(4):
                    f = ps.points[:, 0] ** p * ps.points[:, 1] ** q * ps.points[:, 2] ** r
                    exact = (4.0 ** (p + 1) / (p + 1)) / (q + 1) / (r + 1)
                    got = float(np.sum(f * ps.vol_weights))
                    assert abs(got - exact) / abs(exact) <= 1e-13


class TestPresets:
    def test_unknown(self):
        with pytest.raises(UnknownPreset):
            preset("bogus")

    def test_names(self):
        assert set(PRESET_NAMES) == {
            "nh_cantilever_traction",
            "lp_cantilever_displacement",
            "nh_simple_shear",
            "nh_localized_traction",
            "nh_uniaxial_traction",
            "lp_uniaxial_traction",
        }

    def test_cantilever_geometry_and_load(self):
        p = preset("nh_cantilever_traction")
        assert p.domain.lengths == (4.0, 1.0, 1.0)
        assert p.material.lam == 577.0 and p.material.mu == 385.0
        assert len(p.enforcer.faces) == 1
        assert p.enforcer.faces[0].axis == 0 and p.enforcer.faces[0].side == "lo"
        loaded = [q for q in p.patches if any(q.traction)]
        assert len(loaded) == 1
        assert loaded[0].axis == 0 and loaded[0].side == "hi"
        assert loaded[0].traction == (0.0, -5.0, 0.0)
        # zero-traction faces are explicit patches
        assert len(p.patches) == 5

    def test_lp_cantilever_material(self):
        p = preset("lp_cantilever_displacement")
        assert p.material.alphas == (1.0, -2.0)
        assert p.material.mus == (100.0, 50.0)
        assert p.material.lam == 100.0
        assert len(p.enforcer.faces) == 2

    def test_localized_traction_patch(self):
        p = preset("nh_localized_traction", grid=(11, 11, 11))
        ps = p.point_sets()
        (f,) = np.flatnonzero(ps.normals[:, 0] == 1.0)  # the X1-hi face
        on_face = ps.traction_weights[:, f] != 0.0
        X, tbar = ps.points[on_face], ps.tbar[on_face, f]
        tol = 0.1 + 1e-9
        inside = (np.abs(X[:, 1] - 0.5) <= tol) & (np.abs(X[:, 2] - 0.5) <= tol)
        assert np.all(tbar[inside] == (300.0, 0.0, 0.0))
        assert np.all(tbar[~inside] == 0.0)
        assert not np.any(ps.tbar[~on_face, f])
        # loaded region is the centered 0.2 x 0.2 square (4% of the face)
        assert inside.sum() == 9  # 3 x 3 nodes at 0.1 spacing

    def test_simple_shear_reference(self):
        p = preset("nh_simple_shear", grid=(3, 3, 3))
        X = np.array([[0.0, 1.0, 0.3]])
        assert_allclose(p.reference(X), [[0.5, 0.0, 0.0]])
        assert len(p.enforcer.faces) == 6

    def test_uniaxial_traction_data_match_its_reference(self):
        for name in ("nh_uniaxial_traction", "lp_uniaxial_traction"):
            p = preset(name)
            assert p.name == name
            assert p.domain.counts == (9, 9, 9) and p.domain.lengths == (1.0, 1.0, 1.0)
            ps = p.point_sets()
            F0 = np.eye(3) + np.diag(p.reference(np.ones((1, 3)))[0])
            assert_allclose(F0[0, 0], 1.1, rtol=1e-15)
            P0 = eval_stress(p.material, F0)
            # each loaded face's traction is the exact stress times its normal
            for f, normal in enumerate(ps.normals):
                on_face = ps.traction_weights[:, f] != 0.0
                assert_allclose(ps.tbar[on_face, f], np.broadcast_to(P0 @ normal, (81, 3)),
                                atol=1e-9)
            # the reference meets every roller: u_a = 0 on X_a = 0
            u = p.reference(ps.points)
            for face in p.enforcer.faces:
                (a,) = face.components
                assert face.axis == a and face.side == "lo"
                assert np.all(u[ps.points[:, a] == 0.0, a] == 0.0)

    def test_lp_uniaxial_material_is_the_lp_presets(self):
        assert preset("lp_uniaxial_traction").material == preset(
            "lp_cantilever_displacement").material

    def test_determinism(self):
        a = preset("nh_localized_traction", grid=(5, 5, 5))
        b = preset("nh_localized_traction", grid=(5, 5, 5))
        pa, pb = a.point_sets(), b.point_sets()
        assert np.array_equal(pa.points, pb.points)
        assert np.array_equal(pa.vol_weights, pb.vol_weights)
        assert a.material == b.material
        assert a.enforcer.faces == b.enforcer.faces
        for name in ("row_weights", "interior_weights", "traction_weights",
                     "normals", "tbar", "load"):
            assert np.array_equal(getattr(pa, name), getattr(pb, name))


class TestAffineProblem:
    def test_defaults_and_names(self):
        shear, stretch = affine_problem("shear"), affine_problem("stretch")
        assert (shear.name, stretch.name) == ("affine_shear_0.3", "affine_stretch_1.1x1x1")
        assert shear.domain.counts == stretch.domain.counts == (9, 9, 9)
        X = np.array([[0.2, 0.5, 0.7]])
        assert_allclose(shear.reference(X), [[0.15, 0.0, 0.0]], rtol=1e-15)
        assert_allclose(stretch.reference(X), [[0.02, 0.0, 0.0]], atol=1e-17)
        assert affine_problem("shear:0.3").name == "affine_shear_0.3"
        assert affine_problem("stretch:1.1,1.0,1.0", (5, 5, 5)).name == "affine_stretch_1.1x1x1"
        assert affine_problem("stretch:1.1,1.0,1.0", (5, 5, 5)).domain.counts == (5, 5, 5)

    @pytest.mark.parametrize("spec, message", [
        ("stretch:1.1,1.0", "three stretches"),
        ("twist:0.1", "shear or stretch"),
        ("stretch:-1,1,1", "det F0"),
    ])
    def test_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            affine_problem(spec)
